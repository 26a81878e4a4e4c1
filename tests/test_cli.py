import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goa
from goa import GroundSet, Partition
from goa.cli import main
from goa.errors import InputError
from goa.partition import format_partition, parse_partition_text
from goa.perms import close_generators, format_permutation, orbit_partition, parse_group_text
from goa.recon import lovasz_tight_instance

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


def test_orbits_of_s10_from_two_generators(tmp_path, capsys):
    # 10! elements are past the closure cap; the orbits need only the generators
    f = tmp_path / "g.txt"
    f.write_text("n 10\n(1,2)\n(1,2,3,4,5,6,7,8,9,10)\n")
    code, out, err = run(capsys, "orbits", "--group", str(f))
    assert (code, err) == (0, "")
    part = parse_partition_text(out)
    assert len(part.blocks) == 11
    assert all(len({bin(m).count("1") for m in b}) == 1 for b in part.blocks)


def test_free_index_refuses_s10_without_listing_it(tmp_path, capsys):
    # a free action on 10 points has at most 10 elements; S_10 is refused
    # as soon as its closure passes 10, not after 10! elements
    f = tmp_path / "g.txt"
    f.write_text("n 10\n(1,2)\n(1,2,3,4,5,6,7,8,9,10)\n")
    code, out, err = run(capsys, "free-index", "--group", str(f))
    assert (code, out) == (2, "")
    assert "does not act freely" in err


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
    lambda d: ("dimensions", "--n", "-1"),
    lambda d: ("dimensions", "--n", "0"),
    lambda d: ("recon", "--partition", str(d / "example.txt"), "--size", "-1"),
    lambda d: ("recon", "--partition", str(d / "example.txt"), "--size", "4"),
    lambda d: ("verify", "--partition", str(d / "trailing.txt")),
    lambda d: ("free-index", "--group", str(d / "spaced.txt")),
    lambda d: ("verify", "--partition", str(d / "signed.txt")),
    lambda d: ("verify", "--partition", str(d / "repeated.txt")),
], ids=["directory", "non-utf8-partition", "non-utf8-group", "negative-pad",
        "dimensions-negative", "dimensions-zero", "recon-size-negative", "recon-size-above-n",
        "trailing-semicolon", "space-inside-cycle", "signed-subset-token",
        "repeated-member"])
def test_crashes_are_input_errors(tmp_path, capsys, argv_of):
    (tmp_path / "latin1.txt").write_bytes("n 3\n(1,2)\n# caf\xe9\n".encode("latin-1"))
    (tmp_path / "example.txt").write_text(EXAMPLE)
    (tmp_path / "trailing.txt").write_text("n 1\n1 ;\n")
    # '(1 2)' must not read as the one-point cycle (12), the identity at n = 12
    (tmp_path / "spaced.txt").write_text("n 12\n(1 2)\n")
    # '+1' must not read as element 1: the file would verify as the size levels
    (tmp_path / "signed.txt").write_text("n 3\n-\n+1 ; 2 ; 3\n1 2 ; 1 3 ; 2 3\n1 2 3\n")
    # a subset listed twice in one block would verify as the size levels
    (tmp_path / "repeated.txt").write_text("n 2\n-\n1 ; 2 ; 1\n1 2\n")
    code, out, err = run(capsys, *argv_of(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


def test_internal_error_exits_4(monkeypatch, capsys):
    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr("goa.srp.build_counterexample", broken)
    code, out, err = run(capsys, "counterexample")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_a_module_that_fails_to_import_exits_4(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "goa.srp", None)
    code, out, err = run(capsys, "counterexample")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:")


# -- start-up: each command imports only the modules it runs ------------------

SRC = Path(goa.__file__).resolve().parent.parent


# Standard modules a goa command should load only when it needs them:
# dataclasses (which imports inspect) never, fractions only to build a Fraction.
WATCHED_STDLIB = ("dataclasses", "inspect", "fractions")


def goa_modules_after(argv):
    """Exit code and the goa and WATCHED_STDLIB modules of a fresh
    interpreter that imports goa.cli and, unless argv is None, runs
    main(argv) with its stdout discarded."""
    probe = ("import contextlib, io, sys\n"
             "import goa.cli\n"
             "code = None\n"
             f"if {argv!r} is not None:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             f"        code = goa.cli.main({argv!r})\n"
             "print(code, *sorted(m for m in sys.modules\n"
             f"                   if m.split('.')[0] == 'goa' or m in {WATCHED_STDLIB!r}))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    code, *modules = done.stdout.split()
    return code, set(modules)


def test_importing_the_cli_loads_only_the_errors_module():
    assert goa_modules_after(None) == ("None", {"goa", "goa.cli", "goa.errors"})


@pytest.mark.parametrize("argv_of", [
    lambda d: ["counterexample"],
    lambda d: ["is-orbit-algebra", "--partition", str(d / "example.txt")],
], ids=["counterexample", "is-orbit-algebra"])
def test_realizability_commands_load_no_identity_or_reconstruction_module(tmp_path, argv_of):
    (tmp_path / "example.txt").write_text(EXAMPLE)
    code, modules = goa_modules_after(argv_of(tmp_path))
    assert code == "0"
    assert {"goa.srp", "goa.partition", "goa.perms"} <= modules
    assert not modules & {"goa.identities", "goa.terwilliger", "goa.digraphs",
                          "goa.incidence", "goa.recon"}


def test_is_orbit_algebra_loads_only_the_realizability_modules(tmp_path):
    (tmp_path / "example.txt").write_text(EXAMPLE)
    code, modules = goa_modules_after(["is-orbit-algebra", "--partition",
                                       str(tmp_path / "example.txt")])
    assert code == "0"
    assert modules == {"goa", "goa.cli", "goa.errors", "goa.subsets", "goa.partition",
                       "goa.perms", "goa.srp"}


def test_counterexample_adds_only_the_polynomial_layer():
    code, modules = goa_modules_after(["counterexample"])
    assert code == "0"
    assert modules == {"goa", "goa.cli", "goa.errors", "goa.subsets", "goa.partition",
                       "goa.perms", "goa.srp", "goa.poly", "goa.operators"}


@pytest.mark.parametrize("argv_of, fractions", [
    (lambda d: ["counterexample"], False),
    (lambda d: ["is-orbit-algebra", "--partition", str(d / "example.txt")], False),
    (lambda d: ["enumerate-srp", "--n", "3"], False),
    (lambda d: ["verify", "--closure", "--partition", str(d / "example.txt")], False),
    # recon.muller_check reads upward counts from the matrix, with no Fraction
    (lambda d: ["muller-tight", "--r", "3"], False),
    (lambda d: ["identities", "--n", "3"], True),
], ids=["counterexample", "is-orbit-algebra", "enumerate-srp", "verify-closure",
        "muller-tight", "identities"])
def test_commands_load_no_dataclasses_and_fractions_only_when_used(tmp_path, argv_of,
                                                                   fractions):
    (tmp_path / "example.txt").write_text(EXAMPLE)
    code, modules = goa_modules_after(argv_of(tmp_path))
    assert code == "0"
    assert not modules & {"dataclasses", "inspect"}
    assert ("fractions" in modules) == fractions


def test_importing_every_goa_module_loads_no_dataclasses():
    names = sorted(f"goa.{f.stem}" for f in (SRC / "goa").glob("*.py") if f.stem != "__init__")
    probe = ("import importlib, sys\n"
             f"for name in {names!r}:\n"
             "    importlib.import_module(name)\n"
             "print(len([m for m in sys.modules if m.startswith('goa.')]),\n"
             "      'dataclasses' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == [str(len(names)), "False"]


def test_identity_suite_loads_no_partition_or_group_module():
    code, modules = goa_modules_after(["identities", "--n", "3"])
    assert code == "0"
    assert "goa.identities" in modules
    assert not modules & {"goa.partition", "goa.perms", "goa.srp"}


def test_every_package_name_is_its_submodule_object():
    for name in goa.__all__:
        value = getattr(goa, name)
        assert value.__module__.startswith("goa.")
        assert getattr(sys.modules[value.__module__], name) is value, name
    namespace = {}
    exec("from goa import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(goa.__all__)
    assert set(goa.__all__) <= set(dir(goa))
    with pytest.raises(AttributeError):
        goa.no_such_name


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


@pytest.mark.parametrize("argv", [
    ("dimensions", "--n", "\u0663"),
    ("dimensions", "--n", "1_0"),
    ("dimensions", "--n", "+3"),
    ("dimensions", "--n", " 3"),
    ("muller-tight", "--r", "\u0663"),
    ("muller-tight", "--r", "3", "--pad", "\uff10"),
    ("--seed", "1_789", "identities", "--n", "1"),
    ("digraph-demo", "--vertices", "\u0663"),
    ("enumerate-srp", "--n", "\u0662"),
    ("enumerate-srp", "--n", "2", "--budget", "\u0661"),
    ("enumerate-srp", "--n", "2", "--budget", "1_0"),
    ("enumerate-srp", "--n", "2", "--budget", "inf"),
], ids=["arabic-indic-n", "underscore-n", "plus-n", "space-n", "arabic-indic-r",
        "fullwidth-pad", "underscore-seed", "arabic-indic-vertices", "arabic-indic-srp-n",
        "arabic-indic-budget", "underscore-budget", "inf-budget"])
def test_number_flags_read_only_ascii_decimal_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "invalid" in out.err


def test_verify_closure_budget_exits_3_and_a_nonpositive_one_exits_2(tmp_path, capsys):
    group, _, _ = lovasz_tight_instance(4, pad=1)       # n = 9, 164 blocks
    f = tmp_path / "p.txt"
    f.write_text(format_partition(orbit_partition(group)) + "\n")
    argv = ("verify", "--partition", str(f), "--closure", "--budget")
    code, out, err = run(capsys, *argv, "0.000001")
    assert code == 3
    assert out.endswith("axiom-3 constant-counts: True\n")
    assert err.startswith("budget exceeded: closure test checked ")
    assert err.endswith(" of 13858 images\n")
    for budget in ("0", "-1"):
        code, out, err = run(capsys, *argv, budget)
        assert code == 2
        assert out == ""
        assert "budget" in err
    code, out, err = run(capsys, "verify", "--partition", str(f), "--budget", "5")
    assert code == 2
    assert out == ""
    assert "--closure" in err


# `verify --closure` on the n = 9 tight orbit partition with its first two
# size-2 blocks merged, pinned whole: the first failing image is found on an
# idempotent-basis vector kept as bytes
MERGED_TIGHT_CLOSURE_REPORT = """\
axiom-1 size-homogeneous: True
axiom-2 complement-closed: False
axiom-3 constant-counts: False
witness: axiom-2 6
closed-under-derivation-complementation-multiplication: False
first failure: derivation 6 6
witness polynomial:
  basis P
  3 * 1
  3 * 2
  2 * 3
  2 * 4
"""


def test_verify_closure_report_of_a_non_closed_partition_is_pinned(tmp_path, capsys):
    from goa.partition import merge_blocks
    tight = orbit_partition(lovasz_tight_instance(4, pad=1)[0])
    i, j = [k for k in range(len(tight)) if tight.member_size(k) == 2][:2]
    f = tmp_path / "merged.txt"
    f.write_text(format_partition(merge_blocks(tight, i, j)) + "\n")
    code, out, err = run(capsys, "verify", "--closure", "--partition", str(f))
    assert (code, out, err) == (1, MERGED_TIGHT_CLOSURE_REPORT, "")


def test_negative_seed_and_decimal_budget_stay_valid(capsys):
    assert run(capsys, "--seed", "-5", "identities", "--n", "1")[0] == 0
    assert run(capsys, "enumerate-srp", "--n", "1", "--budget", "30.5")[0] == 0


INT_TEXT = r"-?[0-9]+"
SECONDS_TEXT = r"-?([0-9]+\.?[0-9]*|\.[0-9]+)"
STRAY = "-+._ e\u0663\uff13"   # with an Arabic-Indic and a fullwidth 3

# a decimal with one stray character put in: '1_0', '+3', '3 ', '1\u0663'
NEAR_MISSES = st.builds(lambda digits, i, ch: digits[:i] + ch + digits[i:],
                        st.integers(0, 99).map(str), st.integers(0, 2), st.sampled_from(STRAY))


def written(value):
    """value as ASCII decimal text, sometimes with leading zeros."""
    return st.integers(0, 2).map(
        lambda z: ("-" if value < 0 else "") + "0" * z + str(abs(value)))


def out_of(low, high):
    """Integers outside low..high, as ASCII decimal text (high None: no top)."""
    outside = st.integers(max_value=low - 1, min_value=-10 ** 12)
    if high is not None:
        outside = st.one_of(outside, st.integers(min_value=high + 1, max_value=10 ** 12))
    return outside.flatmap(written)


NONPOSITIVE_SECONDS = st.one_of(
    st.sampled_from(["0", "0.", ".0", "00.000", "-0"]),
    st.builds("-{}.{}".format, st.integers(0, 10 ** 6), st.integers(0, 999)))

# argv with None where the value goes, the text grammar of the flag, and
# the values out of range (None: every decimal text is accepted).  Values
# in range are never drawn, so no draw starts a long run.
NUMBER_FLAGS = [
    (("identities", "--n", None), INT_TEXT, out_of(1, 8)),
    (("enumerate-srp", "--n", None), INT_TEXT, out_of(1, 6)),
    (("dimensions", "--n", None), INT_TEXT, out_of(1, None)),
    (("muller-tight", "--r", None), INT_TEXT, out_of(2, 8)),
    (("muller-tight", "--r", "3", "--pad", None), INT_TEXT, out_of(0, 10)),
    (("enumerate-srp", "--n", "2", "--budget", None), SECONDS_TEXT, NONPOSITIVE_SECONDS),
    (("digraph-demo", "--vertices", None), INT_TEXT, out_of(3, 4)),
    (("--seed", None, "identities", "--n", "1"), INT_TEXT, None),
]


def exit_code_and_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects the text itself
            code = exc.code
    return code, out.getvalue()


@given(st.sampled_from(NUMBER_FLAGS), st.data())
@settings(max_examples=200, deadline=None)
def test_number_flags_refuse_non_decimal_text_and_out_of_range_values(flag, data):
    argv, grammar, out_of_range = flag
    not_decimal = st.one_of(st.text(), NEAR_MISSES).filter(
        lambda text: not re.fullmatch(grammar, text))
    value = data.draw(not_decimal if out_of_range is None
                      else st.one_of(not_decimal, out_of_range))
    argv = [value if a is None else a for a in argv]
    assert exit_code_and_stdout(argv) == (2, ""), argv


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_pipes_exit_4_not_falsified():
    with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(ClosedPipe()):
        assert main(["dimensions", "--n", "3"]) == 4


# -- exit-code contract under malformed input ---------------------------------

HEADERS = st.sampled_from(["n 1", "n 2", "n 3", "n 4", "n 0", "n", "n 2 3", "n -1", "n +2",
                           "n 02", "n \uff13", "x 3", "# n 2", ""])
SUBSET_TOKENS = st.sampled_from(["-", "1", "2", "3", "4", "5", "0", "01", "2 1", "1 1", ";",
                                 "", "x", "+1", "1_2", "\u0661", "#", "(1,2)"])
CYCLE_TOKENS = st.sampled_from(["(1,2)", "(1,2,3)", "(2,4)", "()", "( )", "(1 2)", "(1,1)",
                                "(1,5)", "(0,1)", "(+1,2)", "(\u0661,2)", "(", ")", ",", "x",
                                "#", " ", "3"])


def junk(draw, tokens):
    return " ".join(draw(st.lists(tokens, max_size=4)))


@st.composite
def partition_files(draw):
    """A partition file of n <= 4, well formed or not: an orbit partition
    (strongly regular) or a random one, with up to two lines malformed."""
    g = GroundSet(draw(st.sampled_from([1, 2, 3, 4, 4])))
    if draw(st.booleans()):
        images = tuple(draw(st.permutations(range(1, g.n + 1))))
        part = orbit_partition(close_generators(g, [images]))
    else:
        labels = draw(st.lists(st.integers(0, 7), min_size=g.size, max_size=g.size))
        part = Partition.from_blocks(g, [[m for m in g.masks() if labels[m] == j]
                                         for j in set(labels)])
    lines = format_partition(part).splitlines()
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        lines[i] = draw(HEADERS) if i == 0 else draw(st.sampled_from(
            [junk(draw, SUBSET_TOKENS), lines[i] + " ; " + junk(draw, SUBSET_TOKENS),
             lines[i - 1], ""]))
    return "\n".join(lines) + "\n"


@st.composite
def group_files(draw):
    """A group file: a valid header for n <= 4 or a malformed one, then up
    to three generators, each well formed or junk."""
    n = draw(st.integers(min_value=1, max_value=4))
    lines = [f"n {n}" if draw(st.booleans()) else draw(HEADERS)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        images = tuple(draw(st.permutations(range(1, n + 1))))
        lines.append(format_permutation(images) if draw(st.booleans())
                     else junk(draw, CYCLE_TOKENS))
    return "\n".join(lines) + "\n"


def run_file(text, *argv):
    """Exit code, stdout and stderr of goa on argv + (path of a file holding text,)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.txt"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
    return code, out.getvalue(), err.getvalue()


def parse_fails(parse, text):
    try:
        parse(text)
    except InputError:
        return True
    return False


@given(partition_files())
@settings(max_examples=60, deadline=None)
def test_partition_commands_keep_the_exit_code_contract(text):
    malformed = parse_fails(parse_partition_text, text)
    for argv in (["verify"], ["verify", "--closure"], ["coeff"], ["recon"],
                 ["is-orbit-algebra"], ["stabilizer"]):
        code, out, err = run_file(text, *argv, "--partition")
        assert code in (0, 1, 2, 3), (argv, err)
        if malformed:
            assert (code, out) == (2, ""), (argv, err)


@given(group_files())
@settings(max_examples=60, deadline=None)
def test_group_commands_keep_the_exit_code_contract(text):
    malformed = parse_fails(parse_group_text, text)
    for argv in (["orbits"], ["free-index"]):
        code, out, err = run_file(text, *argv, "--group")
        assert code in (0, 1, 2, 3), (argv, err)
        if malformed:
            assert (code, out) == (2, ""), (argv, err)
