"""Reference implementations that tests hold the production code to.

Each module here is a plain, literal form of an algorithm, kept only so
a test can compare production results against it: §3.6 traversal
assembly, Algorithm 2 as a per-octant recursion, Algorithm 3 on the
simulated MPI, overlap resolution (``linearize``) and closed-cell point
containment.  Nothing under
``src/``, ``benchmarks/`` or ``examples/`` imports them, and
``tests/test_repo_rules.py`` checks that a test reaches every def here.
"""
