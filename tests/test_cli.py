import pytest

from goa.cli import main
from goa.partition import format_partition, parse_partition_text

EXAMPLE = "n 3\n-\n1 ; 2\n3\n1 2\n1 3 ; 2 3\n1 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_ok(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(EXAMPLE)
    code, out, _ = run(capsys, "verify", "--partition", str(f))
    assert code == 0
    assert "axiom-3 constant-counts: True" in out


def test_verify_falsified(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("n 2\n- ; 1 2\n1 ; 2\n")
    code, out, _ = run(capsys, "verify", "--partition", str(f))
    assert code == 1
    assert "axiom-1 size-homogeneous: False" in out
    assert "witness:" in out


def test_verify_missing_subset_is_input_error(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("n 2\n-\n1\n1 2\n")
    code, _, err = run(capsys, "verify", "--partition", str(f))
    assert code == 2
    assert "cover" in err


def test_coeff_power(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(EXAMPLE)
    code, out, _ = run(capsys, "coeff", "--partition", str(f), "--power", "-1")
    assert code == 0
    assert "power-law m=-1: True" in out


def test_is_orbit_algebra(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(EXAMPLE)
    code, out, _ = run(capsys, "is-orbit-algebra", "--partition", str(f))
    assert code == 0
    assert "is-orbit-partition: True" in out
    assert "stabilizer-order: 2" in out


def test_counterexample_command(capsys):
    code, out, _ = run(capsys, "counterexample")
    assert code == 0
    assert "strongly-regular: True" in out
    assert "is-orbit-partition: False" in out
    assert "certificate: True" in out


def test_orbits_round_trip(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("n 3\n(1,2)\n")
    code, out, _ = run(capsys, "orbits", "--group", str(f))
    assert code == 0
    assert parse_partition_text(out) == parse_partition_text(EXAMPLE)


def test_group_range_error(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("n 8\n(1,9)\n")
    code, _, err = run(capsys, "orbits", "--group", str(f))
    assert code == 2
    assert "line 2" in err


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "--n", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate-srp", "--n", "2")
    assert code == 0
    assert "count: 2" in out


def test_recon_command(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(EXAMPLE)
    code, out, _ = run(capsys, "recon", "--partition", str(f))
    assert code == 0
    assert "no-pairs-above-half: True" in out


def test_muller_tight_command(capsys):
    code, out, _ = run(capsys, "muller-tight", "--r", "3")
    assert code == 0
    assert "equality-at-empty-block: True" in out


def test_free_index_command(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("n 5\n(1,2,3,4,5)\n")
    code, out, _ = run(capsys, "free-index", "--group", str(f))
    assert code == 0
    assert "reconstruction-index: 3" in out


def test_free_index_nonfree_rejected(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("n 3\n(1,2)\n")
    code, _, err = run(capsys, "free-index", "--group", str(f))
    assert code == 2


def test_digraph_demo_f3(capsys):
    code, out, _ = run(capsys, "digraph-demo", "--vertices", "3")
    assert code == 0
    assert "graph-deletion-identity: True" in out


def test_partition_print_parse_round_trip(tmp_path, capsys):
    part = parse_partition_text(EXAMPLE)
    assert parse_partition_text(format_partition(part)) == part


def test_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["verify"])


@pytest.mark.parametrize("argv_of", [
    lambda d: ("verify", "--partition", str(d)),
    lambda d: ("verify", "--partition", str(d / "latin1.txt")),
    lambda d: ("orbits", "--group", str(d / "latin1.txt")),
    lambda d: ("muller-tight", "--r", "3", "--pad", "-1"),
], ids=["directory", "non-utf8-partition", "non-utf8-group", "negative-pad"])
def test_crashes_are_input_errors(tmp_path, capsys, argv_of):
    (tmp_path / "latin1.txt").write_bytes("n 3\n(1,2)\n# caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, *argv_of(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


def test_coeff_power_zero_rejected_before_output(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(EXAMPLE)
    code, out, err = run(capsys, "coeff", "--partition", str(f), "--power", "0")
    assert code == 2
    assert out == ""
    assert "nonzero" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_enumerate_rejects_nonpositive_budget(capsys, budget):
    code, out, err = run(capsys, "enumerate-srp", "--n", "2", "--budget", budget)
    assert code == 2
    assert out == ""
    assert "budget" in err
