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
     "eb73823082fc259921bd47abfe891938023a88c396f287d45537dc7baf2cecd8"),
    (("poly", "--q", "0.5", "--n", "3", "--grid-points", "16", "--format", "json"),
     "f6984cf9c50f212a72feb093f8f8b075923aed6bac079211417bc5c2e2a9f79c"),
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
    (("action-dist", "--q", "0.5", "--n", "2", "--m-range", "-1:4", "--format", "json"),
     "ae8143498f9f354040a98b43ddb873ab90bd6848a5e5cbb7fdb091a2f8d83c3c"),
    (("wigner", "--q", "0.5", "--n", "2", "--m", "2", "--grid-points", "16"),
     "097c746e6ab7c925edb299ae8d218847b58e3dc00910a03f4704acb7a9fbf732"),
    (("wigner", "--q", "0.5", "--n", "2", "--m", "2", "--grid-points", "16",
      "--format", "json"),
     "ac567782084987484017bd1e974629662a85ffd0968f8b56151a90dbd0744e89"),
    # 81 frequencies up to 155, amplitudes from 1e-1 down to 1e-99
    (("wigner", "--q", "0.0811", "--n", "150", "--m", "152", "--grid-points", "4096"),
     "bdba30a5386b63cb7aa252cf33dae824e38313bcd0cf57809e1e317e8d85e5b4"),
    (("verify", "--q", "0.5", "--n", "3"),
     "10f02ac7dc4c00581bd9c74590bf5a2a5c505db61c2d84b42d1e4021413fa813"),
    # n = 9 and 10 need the n_top = 16 table beside the n_top = 8 one
    (("verify", "--q", "0.004", "--n", "10"),
     "d83996e192b6394ccca202dd49b54fd81c6437fd55df748ceb52cbadb03d4c23"),
    # near q = 1: a 17-point quadrature table and a 512-point angle grid
    (("verify", "--q", "0.998", "--n", "6"),
     "175914ade0d2d66617b4a193eb060993bf283f91c500d30360e7d1ebdbe70355"),
    # [k]_q up to ~950: both algebra residuals stay near eps once scaled by [k+1]_q
    (("verify", "--q", "0.9999", "--n", "1000"),
     "6a462f251f16c9dd0c59a09a469cf03a6b614afa85290c8bfe9585ee522550d2"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_digest(argv, digest):
    result = CliRunner().invoke(cli, list(argv), catch_exceptions=False)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
