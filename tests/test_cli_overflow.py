"""Past double range the CLI exits 3 and names the quantity that overflowed.

Near q = 1 at large n, (q;q)_n underflows and the binomial-sum R_n loses
all accuracy and grows without bound; each command must refuse such a case
with a typed error instead of a traceback or a table of inf.
"""

import pytest
from click.testing import CliRunner

from qps.cli import cli

runner = CliRunner()


@pytest.mark.parametrize(
    "args, names",
    [
        # sqrt((q;q)_n) underflows to 0 at n = 150, q = 1 - 1e-4
        (["angle-dist", "--n", "150", "--mu-list", "0.00005", "--grid-points", "8"],
         ["(q;q)_n", "n=150", "q=0.99990000"]),
        # R_120 overflows, so Omega^(120) reads inf
        (["angle-dist", "--q", "0.9999", "--n", "120", "--grid-points", "8"],
         ["Omega^(n)", "n=120", "q=0.9999"]),
        # |R_k|^2 passes double range at k = 103
        (["poly", "--q", "0.9999", "--n", "110", "--grid-points", "8"],
         ["|R_k|^2", "k=103", "q=0.9999"]),
        # the Carlitz diagonal q^-n passes double range at n = 8, q = 1e-40
        (["verify", "--q", "1e-40", "--n", "10"],
         ["q^-n", "n=8", "q=1e-40"]),
    ],
)
def test_overflow_exits_3_naming_the_quantity(args, names):
    res = runner.invoke(cli, args)
    assert res.exit_code == 3
    assert res.exception is None or isinstance(res.exception, SystemExit)
    for name in names:
        assert name in res.output
