"""interlace-lab: numerics for interlacing one-dimensional diffusions.

Subpackages/modules:
    diffusion1d  scale/speed calculus, conjugate (Siegmund-dual) diffusions,
                 Feller boundary classification, transition-kernel catalog
    kmgroup      Karlin-McGregor determinants, Doob h-transforms,
                 eigenfunctions, entrance laws
    twolevel     block-determinant two-level kernels and intertwining checks
    reflectsde   discrete Skorokhod maps and reflected-SDE simulation
    edgekernels  determinantal transition densities for edge particle systems
    quadrature   Gauss-Legendre rules for intervals, ordered chambers and boxes
    cli          the interlace-lab command line
    harness      random-matrix oracles, KS statistics, the verification checks
                 (A1-A10) and the campaigns that run them
"""

__version__ = "0.1.0"
