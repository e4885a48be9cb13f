"""Expected-maximum experiments for fractional Brownian motion.

Simulation of fBm paths by circulant embedding, Monte Carlo and Clark
estimates of the expected maximum, the small-Hurst limit integral, and the
analytic bounds that together exhibit the blow-up of the discretization error
as the Hurst index tends to zero.
"""

__version__ = "0.1.0"
