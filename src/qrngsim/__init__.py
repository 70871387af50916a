"""qrngsim: simulator of a two-photon interference quantum RNG.

The chain mirrors the bench: a photon-pair source feeds a balanced
splitter where two-photon interference bunches the pair into one output
arm; splitter-plus-detector stages resolve the bunch as a same-arm
coincidence; a counting clock turns D1D2/D3D4 coincidences into raw bits;
von Neumann unbiasing and an SP 800-22 test subset close the loop.
"""

__version__ = "0.2.0"
