"""Golden stdout: the sha256 of one small call of each command.

The digests pin the CLI's bytes, so a change meant only to make qps faster
or smaller shows here if it moves a single output character.  A change that
fixes numbers updates the digest it moves and names that in CHANGES.md.
"""

import hashlib

import pytest
from click.testing import CliRunner

from qps.cli import cli

GOLDEN = [
    (("poly", "--q", "0.5", "--n", "3", "--grid-points", "16"),
     "cb3103ea447e732e2062a101d21da09afde785332a6a7e8642b8540e00de0f15"),
    (("theta", "--q", "0.5", "--grid-points", "16"),
     "a670883488f67509e15960721f86721b34bee4fac554d8caa52eb418939fc649"),
    (("theta", "--mu", "3.0", "--grid-points", "16", "--format", "json"),
     "d54238efa00ab14b2fbb4555921237bf371822aba1c153df43172c23986e3945"),
    (("angle-dist", "--n", "2", "--mu-list", "0.1,0.5", "--grid-points", "16"),
     "445ef5d7d0128ad8e8f898b0257328fbf9b88db796679a4b4899b35700793035"),
    (("angle-dist", "--n", "2", "--mu-list", "0.1,0.5", "--grid-points", "16",
      "--format", "json"),
     "32d7150fdfd2591049be94d29547e0461b3ee1bb7b88284b87f069e4d6844c4c"),
    (("action-dist", "--q", "0.5", "--n", "2", "--m-range", "-1:4"),
     "ff820aa87c012e7b0a55c2d2cdf9c1821ffc5bfaf5bb262e9a519551e1a43ca5"),
    (("wigner", "--q", "0.5", "--n", "2", "--m", "2", "--grid-points", "16"),
     "d5e31c142ade46452aa37541d886d2b59eefa1106b2094c7c8b44ec762ef601b"),
    (("wigner", "--q", "0.5", "--n", "2", "--m", "2", "--grid-points", "16",
      "--format", "json"),
     "1b48298668667427f12244ade4b61b88664c39924c72470538c58ee8186ae1e5"),
    (("verify", "--q", "0.5", "--n", "3"),
     "8854b27938bba0d98f0af0bf28c72a66eea5a35fd61f082e9901e78b1ac5478c"),
    # n >= 8 builds both quadrature tables (n_top 8 and 16)
    (("verify", "--q", "0.004", "--n", "10"),
     "acc650d33e14df519ca190d1d13616a6e3adc3417b9c93dca3da3024e597c159"),
    # Gaussian theta_3 branch, quadrature on an enlarged 512-point grid
    (("verify", "--q", "0.998", "--n", "6"),
     "cdc460df138d0c725f91a446880d2e3d3ee0ec870237223ea753a6906d4bf247"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_digest(argv, digest):
    result = CliRunner().invoke(cli, list(argv), catch_exceptions=False)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
