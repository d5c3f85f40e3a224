import argparse
import json
import math

import pytest

from gfmatroids import dual, matroid_from_gfm, parse_gfm
from gfmatroids.cli import build_parser, main, resolve_instance
from gfmatroids.setsystem import SHATTER_LIMIT


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_girth_petersen(capsys):
    code, rep = run_json(capsys, "girth", "gen:petersen@gf2")
    assert code == 0
    assert rep["girth"] == 5
    assert rep["elements"] == 15


def test_girth_cutoff(capsys):
    code, rep = run_json(capsys, "girth", "gen:heawood@gf2", "--cutoff", "3")
    assert code == 0
    assert rep["girth"] is None
    assert rep["exceeds_cutoff"] == 3


def test_gen_density_flow(tmp_path, capsys):
    out = tmp_path / "f.gfm"
    code, _ = run_cli(capsys, "gen", "pg_2_2", "--out", str(out))
    assert code == 0
    code, rep = run_json(capsys, "density", str(out))
    assert code == 0
    assert rep["elements"] == 7 and rep["rank"] == 3
    assert rep["ratio"] == 7 / 3


def test_gen_roundtrip_preserves_labels_and_matrix(tmp_path, capsys):
    out = tmp_path / "u.gfm"
    code, _ = run_cli(capsys, "gen", "u_2_4@gf5", "--out", str(out))
    assert code == 0
    m = matroid_from_gfm(out.read_text())
    from gfmatroids import uniform, field_from_order

    u = uniform(2, 4, field_from_order(5))
    assert m.labels == u.labels
    assert m.matrix == u.matrix


def test_gen_with_field_flag(tmp_path, capsys):
    out = tmp_path / "u.gfm"
    code, _ = run_cli(capsys, "gen", "u_2_4", "--field", "5", "--out", str(out))
    assert code == 0
    assert matroid_from_gfm(out.read_text()).field.q == 5


def test_parse_default_labels():
    m = matroid_from_gfm("gfm q=2 rows=1 cols=3\n1 0 1\n")
    assert m.labels == ("c0", "c1", "c2")


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.gfm"
    bad.write_text("gfm q=3 rows=2 cols=2\n0 1\n1 3\n")
    code, rep = run_json(capsys, "girth", str(bad))
    assert code == 2
    assert "line 3" in rep["error"]["message"]
    assert "out of range" in rep["error"]["message"]


def test_gfm_text_after_the_last_row_is_an_error(tmp_path, capsys):
    p = tmp_path / "long.gfm"
    p.write_text("gfm q=2 rows=1 cols=2\n1 1\n0 1\nnonsense here\n")
    code, rep = run_json(capsys, "girth", str(p))
    assert code == 2
    assert rep["error"]["type"] == "GfmParseError"
    assert "line 3" in rep["error"]["message"]
    # blank lines after the last row are fine
    p.write_text("gfm q=2 rows=1 cols=2\n1 1\n\n  \n")
    code, rep = run_json(capsys, "girth", str(p))
    assert code == 0
    assert rep["girth"] == 2


def test_parse_gf4_header_uses_bundled_modulus():
    m = matroid_from_gfm("gfm q=4 rows=2 cols=3\n1 2 3\n0 1 1\n")
    assert m.field.modulus == (1, 1, 1)


def test_unsupported_field_order_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "q257.gfm"
    p.write_text("gfm q=257 rows=1 cols=1\n256\n")
    code, rep = run_json(capsys, "girth", str(p))
    assert code == 2
    assert rep["error"]["type"] == "GfmParseError"
    assert "line 1" in rep["error"]["message"]


def test_budget_only_on_shatter(capsys):
    # the exact-shatter limit is a constant: no command takes --budget
    for argv in (["girth", "gen:mk4"], ["shatter", "gen:mk4", "--m", "2"]):
        code, rep = run_json(capsys, *argv, "--budget", "5")
        assert code == 2
        assert rep["error"]["type"] == "InputError"
        assert "--budget" in rep["error"]["message"]
    # 2 rows x 250 nonzero values: C(500, 4) ground subsets, over the limit
    code, rep = run_json(capsys, "shatter", "gen:u_2_6@gf251", "--m", "4")
    assert code == 2
    assert rep["error"] == {
        "type": "ValueError",
        "message": f"exact shatter needs {math.comb(500, 4)} subsets, over the limit {SHATTER_LIMIT}",
    }


def test_each_command_registers_only_its_options():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    extra = {
        "girth": {"--cutoff"},
        "dual": set(),
        "simplify": set(),
        "shatter": {"--m", "--trials", "--seed"},
        "separation": {"--deltas"},
        "verify": {"--t", "--basis", "--seed"},
        "minor": {"--target"},
        "density": set(),
        "gen": set(),
    }
    got = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert got == {name: {"--field", "--out"} | opts for name, opts in extra.items()}


@pytest.mark.parametrize("argv, names", [
    (["girth", "{tri}@gfx"], "@gfx"),
    (["verify", "gen:mk4", "--t", "3", "--basis", "sample:x"], "--basis"),
    (["separation", "gen:mk4", "--deltas", "1,x"], "--deltas"),
    (["girth", "gen:mk4", "--field", "6"], "--field"),
], ids=["graph-suffix", "basis", "deltas", "field"])
def test_bad_flag_or_suffix_is_an_input_error(tmp_path, capsys, argv, names):
    tri = tmp_path / "tri.graph"
    tri.write_text("graph n=3 m=3\n0 1\n1 2\n0 2\n")
    code, rep = run_json(capsys, *(a.replace("{tri}", str(tri)) for a in argv))
    assert code == 2
    assert rep["error"]["type"] == "InputError"
    assert names in rep["error"]["message"]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_nonpositive_sample_count_is_an_input_error(capsys, count):
    code, rep = run_json(capsys, "verify", "gen:mk4_dual", "--t", "4", "--basis", f"sample:{count}")
    assert code == 2
    assert rep["error"]["type"] == "InputError"
    assert rep["error"]["message"].startswith("argument --basis:")
    assert f"sample:{count}" in rep["error"]["message"]


@pytest.mark.parametrize("argv, code, names, not_named", [
    (["gen:mk4@gf3", "--field", "5"], 2, ["@gf3", "GF(5)"], []),
    (["gen:mk4@gf3", "--field", "3"], 0, [], []),
    (["gen:pg_2_3", "--field", "5"], 2, ["GF(5)", "order 3"], ["suffix"]),
], ids=["suffix-conflict", "suffix-matches", "pg-order-conflict"])
def test_gen_field_suffix_and_field_flag(capsys, argv, code, names, not_named):
    got, rep = run_json(capsys, "girth", *argv)
    assert got == code
    if code == 0:
        assert rep["field"].startswith("3,")
        return
    msg = rep["error"]["message"]
    assert rep["error"]["type"] == "InputError"
    assert all(n in msg for n in names)
    assert not any(n in msg for n in not_named)


def test_gen_graph_out_checks_the_field_suffix(tmp_path):
    out = tmp_path / "p.graph"
    assert main(["gen", "petersen@gf3", "--field", "5", "--out", str(out)]) == 2
    msg = json.loads(out.read_text())["error"]["message"]
    assert "@gf3" in msg and "GF(5)" in msg
    assert main(["gen", "petersen@gf3", "--field", "3", "--out", str(out)]) == 0
    assert out.read_text().startswith("graph n=10 m=15")


@pytest.mark.parametrize("command", ["girth", "gen"])
@pytest.mark.parametrize("gen_id", ["mk400", "mk81_dual", "mk100000", "u_0_10000001@gf2",
                                    "u_1_10000001@gf3", "u_0_1000001@gf2"])
def test_large_generators_are_refused_by_the_entry_guard(capsys, command, gen_id):
    code, rep = run_json(capsys, command, gen_id if command == "gen" else f"gen:{gen_id}")
    assert code == 2
    assert set(rep) == {"error"}
    assert "10^7 entry guard" in rep["error"]["message"]


def test_pg_is_built_over_the_requested_field(capsys):
    # GF(9) with modulus x^2+1 (code 10), not the bundled x^2+2x+2 (code 17)
    code, rep = run_json(capsys, "girth", "gen:pg_1_9", "--field", "9:10")
    assert code == 0
    assert rep["field"] == "3,2,10"


@pytest.mark.parametrize("text, line", [
    ("graph n=3 m=2\n0 1\n1 x\n", "line 3"),
    ("graph n=3 m=2\n\n0 1\n1 7\n", "line 4"),
    ("graph n=3=4 m=1\n0 1\n", "line 1"),
    ("graph n=3 m=1 junk\n0 1\n", "line 1: malformed header token 'junk'"),
    ("\ngraph n=3 m=1 n=7\n0 1\n", "line 2: repeated header key 'n'"),
    ("graph n=-5 m=0\n", "line 1: n= and m= must be >= 0"),
    ("graph n=3 m=-1\n", "line 1: n= and m= must be >= 0"),
    ("graph n=3 m=2\n0 1\n", "line 1: expected 2 edge lines, got 1"),
    ("\ngraph n=3 m=1\n0 1\n1 2\n", "line 2: expected 1 edge lines, got 2"),
], ids=["non-integer", "vertex-out-of-range", "header-token", "header-junk", "header-repeated-key",
        "negative-n", "negative-m", "short-file", "long-file"])
def test_graph_file_errors_name_the_line(tmp_path, capsys, text, line):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    code, rep = run_json(capsys, "girth", str(path))
    assert code == 2
    assert rep["error"]["type"] == "InputError"
    assert line in rep["error"]["message"]


@pytest.mark.parametrize("cutoff", ["0", "-3"])
def test_girth_cutoff_below_one_exit_2(capsys, cutoff):
    code, rep = run_json(capsys, "girth", "gen:mk4", "--cutoff", cutoff)
    assert code == 2
    assert "cutoff" in rep["error"]["message"]


def test_verify_bridge_rejected_with_certificate(tmp_path, capsys):
    graph = tmp_path / "path.graph"
    graph.write_text("graph n=3 m=2\n0 1\n1 2\n")
    code, rep = run_json(capsys, "verify", f"{graph}@gf2", "--t", "3")
    assert code == 1
    assert rep["cosimple"] is False
    assert rep["certificate"]["kind"] == "coloop"
    assert rep["certificate"]["elements"]


def test_verify_t_below_2_exits_2(tmp_path, capsys):
    code, rep = run_json(capsys, "verify", "gen:mk4@gf2", "--t", "1")
    assert code == 2
    assert rep["error"]["message"] == "clique needs t >= 2, got 1"
    # t is checked before cosimplicity, so a non-cosimple input exits 2, not 1
    graph = tmp_path / "path.graph"
    graph.write_text("graph n=3 m=2\n0 1\n1 2\n")
    code, rep = run_json(capsys, "verify", f"{graph}@gf2", "--t", "1")
    assert code == 2
    assert rep["error"]["message"] == "clique needs t >= 2, got 1"


def test_verify_of_the_empty_matroid_exits_2(capsys):
    # the empty matroid is free and cosimple, with no circuit to report
    code, rep = run_json(capsys, "verify", "gen:u_0_0@gf2", "--t", "3")
    assert code == 2
    assert rep == {"error": {"type": "NoCircuitError", "message": "free matroid has no circuits"}}


def test_verify_basis_all_is_the_default(capsys):
    argv = ["verify", "gen:mk4_dual", "--t", "4"]
    assert run_cli(capsys, *argv, "--basis", "all") == run_cli(capsys, *argv)


@pytest.mark.parametrize("gen_id, girth", [
    ("u_3_4@gf2", 4), ("u_4_4@gf2", "infinity"), ("u_5_6@gf3", 6),
])
def test_uniform_of_corank_at_most_one_over_a_small_field(capsys, gen_id, girth):
    code, rep = run_json(capsys, "girth", f"gen:{gen_id}")
    assert code == 0
    assert rep["girth"] == girth


def test_verify_mk4_dual(capsys):
    code, rep = run_json(capsys, "verify", "gen:mk4_dual", "--t", "4")
    assert code == 0
    assert rep["cosimple"] is True
    assert rep["girth"] == 3
    statuses = {f["target"]: f["status"] for f in rep["minors"]}
    assert statuses["mk4_dual"] == "found"
    assert list(rep)[:9] == [
        "command", "instance", "cosimple", "girth", "circuit",
        "circuit_size", "nonbasis_count", "min_sym_diff", "minors",
    ]


def test_girth_past_the_size_limit(capsys):
    # McGee's 36 elements: the least weight of its 2^13 - 1 codewords; the
    # cycle space of PG(2, 27) has 754 dimensions, too many to list
    code, rep = run_json(capsys, "girth", "gen:mcgee@gf2")
    assert (code, rep["girth"]) == (0, 7)
    code, rep = run_json(capsys, "girth", "gen:pg_2_27")
    assert code == 2
    assert rep["error"]["type"] == "TooLargeError"


def test_verify_past_the_girth_limit_exits_0(capsys):
    code, rep = run_json(capsys, "verify", "gen:mcgee@gf2", "--t", "5", "--basis", "sample:5")
    assert code == 0
    assert rep["girth"] == 7
    assert rep["bases"] == {"mode": "sample:5", "checked": 5}
    assert [f["status"] for f in rep["minors"]] == ["skipped", "skipped"]


def test_minor_found_and_absent(capsys):
    code, rep = run_json(capsys, "minor", "gen:mk4", "--target", "gen:mk3")
    assert code == 0 and rep["found"]
    code, rep = run_json(capsys, "minor", "gen:pg_2_2", "--target", "gen:u_2_4@gf5")
    assert code == 0 and not rep["found"]


def test_shatter_exact_and_sampled(capsys):
    code, rep = run_json(capsys, "shatter", "gen:mk4", "--m", "2")
    assert code == 0 and rep["exact"]
    code, rep2 = run_json(capsys, "shatter", "gen:mk4", "--m", "2", "--trials", "20", "--seed", "1")
    assert code == 0 and not rep2["exact"]
    assert rep2["value"] <= rep["value"]
    code, rep0 = run_json(capsys, "shatter", "gen:mk4", "--m", "3", "--trials", "0")
    assert code == 0
    assert (rep0["mode"], rep0["subsets_checked"]) == ("sampled", 0)


@pytest.mark.parametrize("instance", ["gen:u_3_3@gf5", "gen:u_3_3@gf251"])
def test_shatter_of_an_empty_family_is_zero_after_one_subset(capsys, instance):
    # a free matroid has no non-basis element, so its family is empty and
    # every trace count is 0; over GF(251) exact mode would need C(750, 3)
    # subsets, over SHATTER_LIMIT, and still answers
    code, rep = run_json(capsys, "shatter", instance, "--m", "3")
    assert code == 0, rep
    assert rep["family_size"] == 0
    assert (rep["mode"], rep["value"], rep["exact"], rep["subsets_checked"]) == ("exact", 0, True, 1)


def test_separation_report(capsys):
    code, rep = run_json(capsys, "separation", "gen:mk5_dual")
    assert code == 0
    assert rep["sym_diff"] == rep["delta_separated_at"]
    assert rep["hamming"] <= rep["sym_diff"] <= 2 * rep["hamming"]
    assert [p["delta"] for p in rep["packings"]] == [1, 2, 3, 4]
    assert all(p["separated"] for p in rep["packings"])


def test_dual_command_embeds_gfm(capsys):
    code, rep = run_json(capsys, "dual", "gen:mk4")
    assert code == 0
    d = matroid_from_gfm(rep["gfm"])
    assert d.rank == 3
    assert sorted(rep["labels"]) == sorted(d.labels)


# GF(4) has one irreducible modulus (code 7); GF(9) is read with x^2+1
# (code 10), not the bundled x^2+2x+2 (code 17)
@pytest.mark.parametrize("text", [
    "gfm q=4 rows=2 cols=4\nlabels a b c d\n1 0 2 3\n0 1 3 1\n",
    "gfm q=9 rows=2 cols=4 modulus=10\nlabels a b c d\n1 0 5 7\n0 1 2 8\n",
], ids=["gf4", "gf9"])
def test_dual_of_an_extension_field_gfm_round_trips(tmp_path, capsys, text):
    p = tmp_path / "m.gfm"
    p.write_text(text)
    m = matroid_from_gfm(text)
    code, rep = run_json(capsys, "dual", str(p))
    assert code == 0
    assert f" modulus={m.field.modulus_code()}" in rep["gfm"].splitlines()[0]
    field, mat, labels = parse_gfm(rep["gfm"])
    d = dual(m)
    assert (field, mat, labels) == (m.field, d.matrix, d.labels)


def test_simplify_command(capsys):
    code, rep = run_json(capsys, "simplify", "gen:u_1_3@gf2")
    assert code == 0
    assert rep["elements"] == 1


def test_unknown_instance_exit_2(capsys):
    code, rep = run_json(capsys, "girth", "gen:mystery")
    assert code == 2
    assert rep["error"]["type"] == "InputError"


def test_missing_file_exit_2(capsys):
    code, rep = run_json(capsys, "girth", "no_such_file.gfm")
    assert code == 2


@pytest.mark.parametrize("target", ["{dir}", "{dir}/missing/report.json"], ids=["directory", "missing-directory"])
def test_unwritable_out_is_a_structured_error(tmp_path, capsys, target):
    out = target.format(dir=tmp_path)
    code, rep = run_json(capsys, "girth", "gen:mk4", "--out", out)
    assert code == 2
    assert rep["error"]["type"] == "InputError"
    assert rep["error"]["message"].startswith(f"cannot write {out}: ")


def test_usage_error_is_structured_json(capsys):
    code, rep = run_json(capsys, "verify", "gen:mk4")  # missing required --t
    assert code == 2
    assert rep["error"]["type"] == "InputError"


def test_field_conflict_exit_2(tmp_path, capsys):
    p = tmp_path / "m.gfm"
    p.write_text("gfm q=2 rows=1 cols=2\n1 1\n")
    code, rep = run_json(capsys, "girth", str(p), "--field", "3")
    assert code == 2
    assert "conflict" in rep["error"]["message"]


# GF(8) has two irreducible moduli: x^3+x+1 (code 11, bundled) and x^3+x^2+1 (code 13)
@pytest.mark.parametrize("argv", [
    ["gen:mk4@gf8", "--field", "8:13"],
    ["{dir}/m.gfm", "--field", "8"],
    ["{dir}/tri.graph@gf8", "--field", "8:13"],
], ids=["gen", "gfm", "graph"])
def test_field_conflict_of_equal_orders_names_both_moduli(tmp_path, capsys, argv):
    (tmp_path / "m.gfm").write_text("gfm q=8 rows=1 cols=2 modulus=13\n1 2\n")
    (tmp_path / "tri.graph").write_text("graph n=3 m=3\n0 1\n1 2\n0 2\n")
    code, rep = run_json(capsys, "girth", *(a.replace("{dir}", str(tmp_path)) for a in argv))
    assert code == 2
    msg = rep["error"]["message"]
    assert "conflicts" in msg
    assert "GF(8) modulus=11" in msg and "GF(8) modulus=13" in msg


@pytest.mark.parametrize("text, names", [
    ("gfm q=2 rows=100000000 cols=100000000\n0\n", "line 2"),
    ("gfm q=2 rows=-1 cols=1\n0\n", "line 1"),
    ("gfm q=4 rows=1 cols=1 modulus=-1\n0\n", "line 1"),
    ("gfm q=2 rows=1 cols=1 rows=2\n0\n", "line 1: repeated header key 'rows'"),
    # no row and no labels line back the width
    ("gfm q=2 rows=0 cols=2000000\n", "line 1: rows=0 and cols=2000000 need a labels line"),
], ids=["huge", "negative-rows", "negative-modulus", "repeated-key", "header-only"])
def test_gfm_header_is_checked_before_use(tmp_path, capsys, text, names):
    p = tmp_path / "h.gfm"
    p.write_text(text)
    code, rep = run_json(capsys, "girth", str(p))
    assert code == 2
    assert rep["error"]["type"] == "GfmParseError"
    assert names in rep["error"]["message"]


@pytest.mark.parametrize("name, text, error, names", [
    ("m.gfm", "", "GfmParseError", "line 1: empty input"),
    ("m.gfm", "matrix q=2 rows=1 cols=1\n1\n", "GfmParseError", "line 1: expected `gfm` header, got 'matrix'"),
    ("m.gfm", "gfm q=4 rows=1 cols=1 modulus=x\n1\n", "GfmParseError", "line 1: modulus= must be an integer"),
    ("m.gfm", "gfm q=2 rows=1 cols=2\nlabels a b c\n1 1\n", "GfmParseError", "line 2: 3 labels for 2 columns"),
    ("m.gfm", "gfm q=2 rows=1 cols=2\nlabels a a\n1 1\n", "GfmParseError", "line 2: labels must be distinct"),
    ("m.gfm", "gfm q=2 rows=3 cols=2\n1 1\n0 1\n", "GfmParseError", "line 4: expected 3 matrix rows, got 2"),
    ("m.gfm", "gfm q=3 rows=1 cols=2\n1 y\n", "GfmParseError", "line 2, column 2: 'y' is not an integer"),
    ("g.graph", "", "InputError", "line 1: empty input, expected `graph` header"),
    ("missing.graph", None, "InputError", "cannot read"),
    ("m.txt", "gfm q=2 rows=1 cols=1\n1\n", "InputError", "unrecognized instance"),
], ids=["gfm-empty", "gfm-not-gfm", "gfm-modulus", "gfm-label-count", "gfm-repeated-label",
        "gfm-missing-rows", "gfm-entry", "graph-empty", "graph-unreadable", "unknown-source"])
def test_instance_input_errors_are_structured(tmp_path, capsys, name, text, error, names):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    code, rep = run_json(capsys, "girth", str(path))
    assert code == 2
    assert set(rep) == {"error"}
    assert rep["error"]["type"] == error
    assert names in rep["error"]["message"]


def test_negative_field_modulus_code_is_a_usage_error(capsys):
    code, rep = run_json(capsys, "girth", "gen:mk4", "--field", "4:-1")
    assert code == 2
    assert rep["error"]["type"] == "InputError"
    assert ">= 0" in rep["error"]["message"]


def test_resolve_instance_graph_suffix(tmp_path):
    p = tmp_path / "tri.graph"
    p.write_text("graph n=3 m=3\n0 1\n1 2\n0 2\n")
    m = resolve_instance(f"{p}@gf3")
    assert m.field.q == 3
    assert m.size == 3


def test_reports_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code = main(["verify", "gen:mk4_dual", "--t", "4", "--seed", "11", "--out", str(out)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    for out in (c, d):
        code = main([
            "shatter", "gen:petersen@gf2", "--m", "4",
            "--trials", "64", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
    assert c.read_bytes() == d.read_bytes()
