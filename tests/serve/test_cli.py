"""``python -m repro.serve`` usage errors: exit 2, one clean error line."""

import pytest

from repro.serve.__main__ import main


@pytest.mark.parametrize("argv", [
    ["serve", "--policy", "{not json"],
    ["serve", "--policy", '{"backend": "cuda"}'],
    # --policy is the one way to pick a backend.
    ["serve", "--backend", "vectorized"],
])
def test_serve_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines()
                if "error:" in line]) == 1
