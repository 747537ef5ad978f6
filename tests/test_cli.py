import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from colorcert import cli
from colorcert.graphs import (
    Digraph, MultiGraph, SimpleGraph, complete_bipartite, complete_graph,
    complete_multipartite_2t, cycle_graph, digraph_to_json, emit_edge_list, emit_graph6,
    join, line_graph,
)
from test_alon_tarsi import poly_coefficient_schauz


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def c5_file(tmp_path):
    return write(tmp_path, "c5.g6", emit_graph6(cycle_graph(5)))


def run(argv):
    return cli.main(argv)


def test_catalog_verify_all_pass(tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    assert run(["catalog", "verify", "--json", rep]) == 0
    doc = json.loads(open(rep).read())
    assert len(doc["results"]) == 19 + 2 + 3
    assert all(r["pass"] for r in doc["results"])
    assert doc["timing"] is None


def test_catalog_verify_entry_filter(tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    assert run(["catalog", "verify", "--entry", "1f", "--json", rep]) == 0
    doc = json.loads(open(rep).read())
    assert len(doc["results"]) == 1
    assert doc["results"][0]["payload"]["computed"] == [751, 750]


def test_catalog_verify_unknown_entry(capsys):
    assert run(["catalog", "verify", "--entry", "zz"]) == 2


def test_reports_byte_identical(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert run(["catalog", "verify", "--json", a]) == 0
    assert run(["catalog", "verify", "--json", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_at_check_exit_codes(c5_file, capsys):
    assert run(["at", "check", c5_file, "--f", "const:3"]) == 0
    assert run(["at", "check", c5_file, "--f", "const:2"]) == 1
    assert run(["at", "check", c5_file, "--f", "bogus:9"]) == 2
    assert run(["at", "check", "/nonexistent", "--f", "const:3"]) == 2


def test_at_count(tmp_path, capsys):
    path = write(tmp_path, "d.json", json.dumps(
        digraph_to_json(Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]))))
    # a directed triangle has equal even/odd counts: verification fails
    assert run(["at", "count", path]) == 1


def test_at_coeff_methods_agree(tmp_path, monkeypatch, capsys):
    # the expansion's answer equals the interpolation oracle's, in the
    # report bytes `--method expand` wrote; the option itself is gone
    monkeypatch.chdir(tmp_path)
    g = _relabel(complete_multipartite_2t(3), [4, 0, 5, 2, 1, 3])
    write(tmp_path, "k2x3.g6", emit_graph6(g))
    argv = ["at", "coeff", "k2x3.g6", "--exponents", "2,2,2,2,2,2"]
    assert run(argv + ["--json", "rep.json"]) == 0
    data = (tmp_path / "rep.json").read_bytes()
    assert json.loads(data)["results"][0]["payload"]["value"] == \
        poly_coefficient_schauz(g, (2,) * 6) == 6
    assert hashlib.sha256(data).hexdigest() == (
        "f2c9e8fffe20dc22d3ee08b7e9f6037eca4e497c3931547ffcf68a995b266b5e")
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--method", "expand"])
    assert exc.value.code == 2


def test_at_coeff_rejects_bad_exponents(c5_file, capsys):
    # C5 has five vertices and five edges
    assert run(["at", "coeff", c5_file, "--exponents", "1,1,1,2"]) == 2
    assert "length mismatch" in capsys.readouterr().err
    assert run(["at", "coeff", c5_file, "--exponents", "1,1,1,1,2"]) == 2
    assert "sum to the edge count" in capsys.readouterr().err
    assert run(["at", "coeff", c5_file, "--exponents", "2,1,1,1,0"]) == 0


def _relabel(g, perm):
    return SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])


@pytest.mark.parametrize("name, graph, f, digest", [
    ("k2x4.g6", _relabel(complete_multipartite_2t(4), [5, 2, 7, 0, 3, 6, 1, 4]), "const:4",
     "9de7dc796658c3525293d81e95e16427ce67150d7b530001d9cd5082d8a6304c"),
    ("k2_join_k2x3.g6",
     _relabel(join(complete_graph(2), complete_multipartite_2t(3)), [3, 6, 0, 7, 4, 1, 5, 2]),
     "const:5", "b902acd5dbcfba6dee61332ab3af482807376a7c3e8513608710bad782ca43da"),
])
def test_at_check_report_bytes(name, graph, f, digest, tmp_path, monkeypatch, capsys):
    # pins the lexicographically least target, its orientation and the
    # Eulerian counts; the report names its input by the path given
    monkeypatch.chdir(tmp_path)
    write(tmp_path, name, emit_graph6(graph))
    assert run(["at", "check", name, "--f", f, "--json", "rep.json"]) == 0
    data = (tmp_path / "rep.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name, host, argv, digest", [
    # the colour-order construction
    ("k55.txt", MultiGraph.from_edges(10, _relabel(
        complete_bipartite(5, 5), [7, 2, 9, 4, 0, 5, 1, 8, 3, 6]).edge_list()),
     ["kp", "galvin"], "3994e775ab91e990059661b770232f4fe6fba1092187d4274ce4fe9f9c5699b8"),
    # the star-order fallback
    ("irregular.txt", MultiGraph.from_edges(7, [
        (0, 2, 1), (0, 4, 2), (0, 6, 1), (1, 5, 1), (1, 6, 2), (2, 3, 1), (3, 4, 1),
        (3, 5, 2), (3, 6, 1)]),
     ["kp", "galvin"], "b1d5f7d0e5c1eb8a135f697618b79bf4bdcbecfcc933d2623eda6f0547aade4c"),
    # 40 bipartitions share the best (cut, squares); the least one wins
    ("tied14.txt", MultiGraph.from_edges(14, [
        (0, 7, 1), (0, 9, 1), (1, 5, 1), (1, 7, 2), (2, 4, 1), (2, 8, 1), (3, 9, 2),
        (3, 12, 1), (4, 11, 1), (5, 12, 1), (6, 10, 2), (6, 13, 1), (8, 11, 1), (10, 13, 1)]),
     ["discharge", "partition"],
     "8641f5f0f3a682132f19c439caa0c04e145f66bc81267cf0e61c1174bc2c0c2b"),
])
def test_multigraph_report_bytes(name, host, argv, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, name, emit_edge_list(host))
    assert run(argv + [name, "--json", "rep.json"]) == 0
    data = (tmp_path / "rep.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_structure_linegraph_report_bytes(tmp_path, monkeypatch, capsys):
    # a vertex-shuffled line graph of a multigraph with a double edge
    h = MultiGraph.from_edges(5, [(0, 1, 2), (0, 2, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1),
                                  (2, 4, 1), (3, 4, 1)])
    g = _relabel(line_graph(h)[0], [5, 2, 7, 0, 3, 6, 1, 4])
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "line8.g6", emit_graph6(g))
    assert run(["structure", "linegraph", "line8.g6", "--json", "rep.json"]) == 0
    data = (tmp_path / "rep.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "90c881a063604301a21ea06780cbabc10d2554d91dffb4c29822e90873675b28")


@pytest.mark.parametrize("name, graph, code, digest", [
    # C_8^2 shuffled: the report pins the first order found
    ("c8sq.g6", _relabel(SimpleGraph.from_edges(8, [
        (u, v) for u in range(8) for v in range(u + 1, 8) if min(v - u, 8 - v + u) <= 2]),
        [5, 2, 7, 0, 3, 6, 1, 4]), 0,
     "fff0d49031897849e3cd7c0949173f50b8a75db0ee8ac319cfc788f203848d48"),
    # quasi-line, but not a circular interval graph
    ("quasi7.g6", SimpleGraph.from_edges(7, [
        (0, 6), (1, 2), (1, 3), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 5), (5, 6)]), 1,
     "98641c96c493ecfebf9ba7ab5151b46db724b92b8879e27e78830edb99315f5e"),
])
def test_structure_circular_report_bytes(name, graph, code, digest, tmp_path, monkeypatch,
                                         capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, name, emit_graph6(graph))
    assert run(["structure", "circular", name, "--json", "rep.json"]) == code
    data = (tmp_path / "rep.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_structure_homopairs_report_bytes(tmp_path, monkeypatch, capsys):
    # two triangles joined by a perfect matching, with outside vertices
    # complete to one side, both or neither; four nonlinear pairs of two
    # sizes pin the clique enumeration order
    g = _relabel(SimpleGraph.from_edges(11, [
        (0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5),
        (6, 0), (6, 1), (6, 2), (7, 3), (7, 4), (7, 5), (6, 8), (7, 8), (6, 9), (7, 9),
        (9, 0), (9, 1), (9, 2), (9, 3), (9, 4), (9, 5), (9, 8), (10, 8), (10, 9)]),
        [5, 2, 7, 0, 3, 6, 1, 4, 10, 8, 9])
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "pairs11.g6", emit_graph6(g))
    assert run(["structure", "homopairs", "pairs11.g6", "--nonlinear",
                "--json", "rep.json"]) == 0
    doc = json.loads((tmp_path / "rep.json").read_bytes())
    assert len(doc["results"][0]["payload"]["pairs"]) == 4
    assert hashlib.sha256((tmp_path / "rep.json").read_bytes()).hexdigest() == (
        "f2745c5f5970d731b1c250a8d2bc63479766df6f3fe4bbe953640eb042e4d289")


def test_structure_2join_reduce_report_bytes(tmp_path, monkeypatch, capsys):
    # a shuffled path-square strip whose A1 side is not reducible, so the
    # mirrored step on the A2 side runs
    perm = [5, 2, 7, 0, 3, 6, 1, 4, 9, 8]
    g = _relabel(SimpleGraph.from_edges(10, [
        (i, j) for i in range(6) for j in range(i + 1, 6) if j - i <= 2] + [
        (6, 7), (6, 0), (6, 1), (7, 0), (7, 1), (8, 5), (7, 9), (8, 9)]), perm)
    tj = {name: sorted(perm[v] for v in part) for name, part in (
        ("H", range(6)), ("A1", (0, 1)), ("A2", (5,)), ("B1", (6, 7)), ("B2", (8,)))}
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "strip10.g6", emit_graph6(g))
    write(tmp_path, "tj.json", json.dumps(tj))
    assert run(["structure", "2join", "reduce", "strip10.g6", "tj.json",
                "--json", "rep.json"]) == 0
    assert hashlib.sha256((tmp_path / "rep.json").read_bytes()).hexdigest() == (
        "d85c8ae760056ee558b2c5e87ba7a5c5098529fa96a06666af4a967d462c3028")


@pytest.mark.parametrize("name, graph, argv, digest", [
    # a shuffled 8-vertex line graph of a multigraph, as in the corpus
    ("line8.g6", _relabel(line_graph(MultiGraph.from_edges(6, [
        (0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 1), (2, 4, 1), (3, 5, 1), (4, 5, 1)]))[0],
        [3, 7, 1, 4, 6, 0, 5, 2]), ["--max-sub", "3"],
     "208ab9047e0cdf411e6bab6d2982c2c42345612574896f0c2954e821be158aa6"),
    # K_4 joined with two isolated vertices, every subset, delta above the maximum degree
    ("k4_join_e2.g6", join(complete_graph(4), SimpleGraph.from_edges(2, [])),
     ["--delta", "6"], "8ed9efd0056d79e460caa99bde0d4ee8cb108c402e2f5c0194e5cb434acf6c04"),
])
def test_structure_bkscan_report_bytes(name, graph, argv, digest, tmp_path, monkeypatch,
                                       capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, name, emit_graph6(graph))
    assert run(["structure", "bkscan", name] + argv + ["--json", "rep.json"]) == 0
    data = (tmp_path / "rep.json").read_bytes()
    assert json.loads(data)["results"][0]["payload"]["hits"]
    assert hashlib.sha256(data).hexdigest() == digest


# a shuffled 5-wheel with a claw at one rim vertex: the hub fails
# quasi-line on its C5 neighbourhood, and the rim vertex has several
# claws, the first of them behind triples that hold an edge
_CLAW9 = _relabel(SimpleGraph.from_edges(9, [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
    (1, 6), (1, 7), (1, 8), (6, 7)]), [4, 8, 5, 6, 3, 2, 0, 1, 7])


@pytest.mark.parametrize("command, digest", [
    ("clawfree", "d94f38c5d9108cba90e1d9390f8cebd66f4b1a27d07ab0295d15ebc21f0a981b"),
    ("quasiline", "9e4cd474b16ae41a2d6577dbbc44f809721910013bc51cd8076045133ffff86b"),
])
def test_structure_claw_and_quasi_line_report_bytes(command, digest, tmp_path, monkeypatch,
                                                    capsys):
    # a "no" instance, so the report carries the witness
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "claw9.g6", emit_graph6(_CLAW9))
    assert run(["structure", command, "claw9.g6", "--json", "rep.json"]) == 1
    data = (tmp_path / "rep.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_kp_subcommands(tmp_path, capsys):
    b = MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list())
    path = write(tmp_path, "k33.txt", emit_edge_list(b))
    assert run(["kp", "galvin", path]) == 0
    assert run(["kp", "mu3"]) == 0


def test_paint_and_choose(c5_file, capsys):
    assert run(["paint", "solve", c5_file, "--f", "const:3"]) == 0
    assert run(["paint", "solve", c5_file, "--f", "const:2"]) == 1
    assert run(["choose", "solve", c5_file, "--f", "const:2"]) == 1


def test_structure_subcommands(c5_file, capsys):
    assert run(["structure", "clawfree", c5_file]) == 0
    assert run(["structure", "quasiline", c5_file]) == 0
    assert run(["structure", "linegraph", c5_file]) == 0
    assert run(["structure", "circular", c5_file]) == 0


def test_structure_2join(tmp_path, capsys):
    from colorcert.catalog import two_join_catalog

    _, _, g, tj = two_join_catalog()[1]
    gpath = write(tmp_path, "p5.g6", emit_graph6(g))
    tjpath = write(tmp_path, "tj.json", json.dumps(tj.to_json()))
    assert run(["structure", "2join", "verify", gpath, tjpath]) == 0


@pytest.mark.parametrize("bad", [9, -5])
def test_structure_2join_rejects_strip_vertices_outside_the_graph(bad, tmp_path, capsys):
    gpath = write(tmp_path, "p3.g6", emit_graph6(SimpleGraph.from_edges(3, [(0, 1), (1, 2)])))
    tjpath = write(tmp_path, "tj.json", json.dumps(
        {"H": [1, 2, bad], "A1": [1], "A2": [bad], "B1": [0], "B2": []}))
    assert run(["structure", "2join", "verify", gpath, tjpath]) == 2
    assert "out of range" in capsys.readouterr().err


def test_structure_2join_rejects_outside_clique_ids_outside_the_graph(tmp_path, capsys):
    gpath = write(tmp_path, "p3.g6", emit_graph6(SimpleGraph.from_edges(3, [(0, 1), (1, 2)])))
    tjpath = write(tmp_path, "tj.json", json.dumps(
        {"H": [0, 1, 2], "A1": [], "A2": [], "B1": [99], "B2": [-4]}))
    assert run(["structure", "2join", "verify", gpath, tjpath]) == 2
    assert "out of range" in capsys.readouterr().err


def test_discharge_and_pipeline(tmp_path, capsys):
    k77 = MultiGraph.from_edges(14, complete_bipartite(7, 7).edge_list())
    path = write(tmp_path, "k77.txt", emit_edge_list(k77))
    assert run(["discharge", "run", path, "--delta", "14"]) == 0
    assert run(["discharge", "degeneracy", path]) == 0
    rep = str(tmp_path / "p.json")
    assert run(["pipeline", "linegraph", path, "--delta", "14",
                "--json", rep]) == 0
    doc = json.loads(open(rep).read())
    items = {r["item"]: r for r in doc["results"]}
    assert items["multiplicity screen"]["pass"]
    assert "certificate" in items["discharge witness"]["payload"]


def test_pipeline_flags_high_multiplicity(tmp_path, capsys):
    h = MultiGraph.from_edges(3, [(0, 1, 4), (1, 2, 1)])
    path = write(tmp_path, "mu4.txt", emit_edge_list(h))
    assert run(["pipeline", "linegraph", path]) == 1


def test_corpus(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "c5.g6").write_text(emit_graph6(cycle_graph(5)))
    (d / "c4.g6").write_text(emit_graph6(cycle_graph(4)))
    (d / "broken.g6").write_text("\x01\x02")
    rep = str(tmp_path / "corpus.json")
    assert run(["corpus", str(d), "--task", "paint", "--f", "const:3",
                "--json", rep]) == 1  # the broken file is itemized
    doc = json.loads(open(rep).read())
    byname = {r["item"]: r for r in doc["results"]}
    assert byname["c5.g6"]["pass"] and byname["c4.g6"]["pass"]
    assert not byname["broken.g6"]["pass"]


def test_corpus_empty_dir(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    assert run(["corpus", str(d), "--task", "at"]) == 0


def test_corpus_cap_vertices(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "c5.g6").write_text(emit_graph6(cycle_graph(5)))
    (d / "c4.g6").write_text(emit_graph6(cycle_graph(4)))
    rep = str(tmp_path / "corpus.json")
    assert run(["corpus", str(d), "--task", "at", "--cap-vertices", "4",
                "--json", rep]) == 1
    byname = {r["item"]: r for r in json.loads(open(rep).read())["results"]}
    assert byname["c4.g6"]["pass"]
    assert byname["c5.g6"]["payload"] == {"error": "over --cap-vertices (5)"}


def test_cap_flags_belong_to_corpus(c5_file, capsys):
    for argv in (["structure", "clawfree", c5_file, "--cap-vertices", "3"],
                 ["--cap-edges", "3", "structure", "clawfree", c5_file]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def test_f_spec_lowset(c5_file, tmp_path, capsys):
    rep = str(tmp_path / "r.json")
    # lows get full degree (2), others degree-1: C5 fails at that budget
    assert run(["at", "check", c5_file, "--f", "lowset:0,1", "--json", rep]) == 1


@pytest.mark.parametrize("spec", ["lowset:7", "lowset:-1,0"])
def test_f_spec_lowset_rejects_ids_outside_the_graph(spec, c5_file, capsys):
    assert run(["at", "check", c5_file, "--f", spec]) == 2
    assert "outside 0..4" in capsys.readouterr().err


def test_f_spec_file(tmp_path, c5_file, capsys):
    fpath = write(tmp_path, "f.json", json.dumps([3, 3, 3, 3, 3]))
    assert run(["at", "check", c5_file, "--f", "file:" + fpath]) == 0
    short = write(tmp_path, "short.json", json.dumps([3, 3]))
    assert run(["at", "check", c5_file, "--f", "file:" + short]) == 2


def _readme_cli_examples():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("colorcert ")]


def test_readme_cli_examples_parse():
    examples = _readme_cli_examples()
    assert len(examples) >= 10
    parser = cli.build_parser()
    for argv in examples:
        parser.parse_args(argv)  # a rejected example exits with status 2


def _fresh_process(argv, cwd):
    """Exit code of the same command in a new interpreter."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "colorcert.cli"] + argv, cwd=cwd, env=env,
                          capture_output=True).returncode


def test_parser_reuse_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    # cli.main builds its parser on its first call and reuses it; no parse
    # may leak into the next one
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "c5.g6", emit_graph6(cycle_graph(5)))
    assert run(["catalog", "verify", "--entry", "1f"]) == 0
    assert run(["catalog", "verify", "--json", "all.json"]) == 0
    assert len(json.loads((tmp_path / "all.json").read_text())["results"]) == 24
    assert run(["--json", "before.json", "structure", "clawfree", "c5.g6"]) == 0
    assert run(["structure", "clawfree", "c5.g6", "--json", "after.json"]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["structure", "clawfree"])
    assert exc.value.code == 2
    assert run(["structure", "quasiline", "c5.g6", "--json", "valid.json"]) == 0
    assert len(built) == 1
    assert (tmp_path / "before.json").read_bytes() == (tmp_path / "after.json").read_bytes()
    for argv, report in (
            (["catalog", "verify", "--json", "fresh_all.json"], "all"),
            (["--json", "fresh_before.json", "structure", "clawfree", "c5.g6"], "before"),
            (["structure", "clawfree", "c5.g6", "--json", "fresh_after.json"], "after"),
            (["structure", "quasiline", "c5.g6", "--json", "fresh_valid.json"], "valid")):
        assert _fresh_process(argv, tmp_path) == 0
        assert ((tmp_path / f"{report}.json").read_bytes()
                == (tmp_path / f"fresh_{report}.json").read_bytes())


@pytest.mark.parametrize("name, graph, failing, digest", [
    ("c5.g6", cycle_graph(5), [[0, 1]] * 5,
     "e0e4793d56d89c7905764ee3f94a935777581b8ccafdbf18d576c06380cc4b19"),
    ("k24.g6", complete_bipartite(2, 4), [[0, 1], [2, 3], [0, 2], [0, 3], [1, 2], [1, 3]],
     "e943e6539e7fc3d8f46885b55b61d3f216c47bc7dd60262d985333324967cb39"),
])
def test_choose_solve_report_bytes(name, graph, failing, digest, tmp_path, monkeypatch,
                                   capsys):
    # the report names its input by the path given, so run from tmp_path
    monkeypatch.chdir(tmp_path)
    write(tmp_path, name, emit_graph6(graph))
    assert run(["choose", "solve", name, "--f", "const:2", "--json", "rep.json"]) == 1
    data = (tmp_path / "rep.json").read_bytes()
    assert json.loads(data)["results"][0]["payload"]["failing_lists"] == failing
    assert hashlib.sha256(data).hexdigest() == digest


def test_importing_the_package_loads_no_hashing_library():
    # hashlib maps the OpenSSL library (about 3 MB resident); only a
    # command that reads an input file needs it
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = ("import sys, colorcert, colorcert.cli, colorcert.discharging; "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
