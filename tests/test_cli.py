import hashlib
import importlib
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from colorcert import cli, kernel, paint
from colorcert.alon_tarsi import ATCertificate
from colorcert.graphs import (
    Digraph, ListSizeFn, MultiGraph, SimpleGraph, complete_bipartite, complete_graph,
    complete_multipartite_2t, cycle_graph, digraph_to_json, emit_edge_list, emit_graph6,
    join, line_graph, path_graph,
)
from test_alon_tarsi import poly_coefficient_schauz
from conftest import SIZE_PROBES, resized
from test_paint import _kernel_play_per_listing, _paintable_token_lists


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


@pytest.mark.parametrize("name, host, code, digest", [
    # every edge meets the degree-sum screen
    ("k44.txt", MultiGraph.from_edges(8, complete_bipartite(4, 4).edge_list()), 0,
     "fbc3400d49cd41b28a11f1a8e6eb82bda998d098536967488f83c598cf092a36"),
    # some edge misses it
    ("irregular.txt", MultiGraph.from_edges(7, [
        (0, 2, 1), (0, 4, 2), (0, 6, 1), (1, 5, 1), (1, 6, 2), (2, 3, 1), (3, 4, 1),
        (3, 5, 2), (3, 6, 1)]), 0,
     "b702923eaddbf26ceecb085eff9d83defbeb412a20782d37202ed1e74fe56c21"),
    # no edges and no vertices: the screen holds vacuously
    ("edgeless.txt", MultiGraph.from_edges(3, []), 1,
     "f91337d39baaa34cce07a3170cfea9f9077dc43a55e113543b4663e64dc3957d"),
    ("empty.txt", MultiGraph.from_edges(0, []), 0,
     "98f43fed85a49fa8398d0fb89174b86fbc948ffe4145b325cb43a3ac5a96631d"),
])
def test_discharge_run_screen_reads_the_degrees_once(name, host, code, digest, tmp_path,
                                                     monkeypatch, capsys):
    # the degree-sum screen reads one degree list, never a degree per edge end
    def per_vertex_degree(self, v):
        raise AssertionError("MultiGraph.degree called")

    monkeypatch.setattr(MultiGraph, "degree", per_vertex_degree)
    monkeypatch.chdir(tmp_path)
    write(tmp_path, name, emit_edge_list(host))
    assert run(["discharge", "run", name, "--json", "rep.json"]) == code
    data = (tmp_path / "rep.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name, host, argv, code, digest", [
    # a witness with its kernel certificate
    ("k44.txt", MultiGraph.from_edges(8, complete_bipartite(4, 4).edge_list()),
     ["pipeline", "linegraph"], 0,
     "8795904ac8d4019d7625f65083274e3c8cae514c94d65cb0d0347635e74293c0"),
    # a witness that `witness_to_kp` refuses
    ("irregular.txt", MultiGraph.from_edges(7, [
        (0, 2, 1), (0, 4, 2), (0, 6, 1), (1, 5, 1), (1, 6, 2), (2, 3, 1), (3, 4, 1),
        (3, 5, 2), (3, 6, 1)]), ["pipeline", "linegraph"], 1,
     "19aa5fde348578d698f0f8e6fb2f23becc444a84a0a6461dbe3ea62b64fc7b5e"),
    # a ledger: settled with no vertices, unsettled with no edges
    ("empty.txt", MultiGraph.from_edges(0, []), ["pipeline", "linegraph"], 0,
     "eb075b317c4b20deba6d178a555572a6026773377a40edfb3d65fd26d2e79bbd"),
    ("edgeless.txt", MultiGraph.from_edges(3, []), ["pipeline", "linegraph"], 1,
     "b9ce9323cde63981aeb2b8450d4d8b571cf91cac222b5c06c183baba3a447d39"),
    ("irregular.txt", MultiGraph.from_edges(7, [
        (0, 2, 1), (0, 4, 2), (0, 6, 1), (1, 5, 1), (1, 6, 2), (2, 3, 1), (3, 4, 1),
        (3, 5, 2), (3, 6, 1)]), ["discharge", "degeneracy"], 0,
     "edda0e4e3f67de29c4984dbf897109e10db20b003fcb3629e7e09c469555a0fa"),
])
def test_pipeline_and_degeneracy_report_bytes(name, host, argv, code, digest, tmp_path,
                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, name, emit_edge_list(host))
    assert run(argv + [name, "--json", "rep.json"]) == code
    data = (tmp_path / "rep.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_pipeline_linegraph_checks_its_certificate_once(tmp_path, monkeypatch, capsys):
    # galvin_orientation checks the certificate; witness_to_kp and the
    # command report it unchecked
    characterize = kernel.kp_line_characterization
    calls = []

    def counting(*a, **kw):
        calls.append(1)
        return characterize(*a, **kw)

    monkeypatch.setattr(kernel, "kp_line_characterization", counting)
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "k44.txt",
          emit_edge_list(MultiGraph.from_edges(8, complete_bipartite(4, 4).edge_list())))
    assert run(["pipeline", "linegraph", "k44.txt", "--json", "rep.json"]) == 0
    assert len(calls) == 1
    assert hashlib.sha256((tmp_path / "rep.json").read_bytes()).hexdigest() == (
        "8795904ac8d4019d7625f65083274e3c8cae514c94d65cb0d0347635e74293c0")


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


def test_structure_2join_reduce_reports_an_irreducible_strip(tmp_path, monkeypatch, capsys):
    # a valid strip of P_5 that is reducible on neither side is a "no"
    # answer with a report, not malformed input
    tj = {"H": [1, 2], "A1": [1], "A2": [2], "B1": [0], "B2": [3]}
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "p5.g6", emit_graph6(path_graph(5)))
    write(tmp_path, "tj.json", json.dumps(tj))
    assert run(["structure", "2join", "verify", "p5.g6", "tj.json"]) == 0
    assert run(["structure", "2join", "reduce", "p5.g6", "tj.json", "--json", "rep.json"]) == 1
    assert "FAIL  reduction" in capsys.readouterr().out
    doc = json.loads((tmp_path / "rep.json").read_bytes())
    assert doc["results"] == [{"item": "reduction", "pass": False,
                               "payload": {"reduced": None, "violation": None}}]
    assert hashlib.sha256((tmp_path / "rep.json").read_bytes()).hexdigest() == (
        "319bc4a086b3c533b3d6eebea74a92bdc91438398f47a7dc009f524fe19ee1f4")


_P7SQ = _relabel(SimpleGraph.from_edges(7, [
    (u, v) for u in range(7) for v in range(u + 1, 7) if v - u <= 2]), [3, 6, 0, 4, 1, 5, 2])
_MIXED7 = SimpleGraph.from_edges(7, [
    (0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 4), (3, 5),
    (3, 6), (4, 5), (5, 6)])


@pytest.mark.parametrize("name, graph, nonlinear, digest", [
    # C4: its two perfect matchings are its pairs, both nonlinear
    ("c4.g6", cycle_graph(4), False,
     "6d46d6749952ac8d668b96ba8a121b008a9c76bce16dc425496df9a34bbaaa5b"),
    ("c4.g6", cycle_graph(4), True,
     "6d46d6749952ac8d668b96ba8a121b008a9c76bce16dc425496df9a34bbaaa5b"),
    # the square of a shuffled 7-path: linear pairs only
    ("p7sq.g6", _P7SQ, False, "15fe142c2738c11f11af816eb939cca8b931621ffd7a82d6691c805f8e40f2f3"),
    ("p7sq.g6", _P7SQ, True, "7f44adf326b92ea60e5256e629c0416988262c4ce6725e48f06f9c2b45550a41"),
    # seven pairs, four of them nonlinear
    ("mixed7.g6", _MIXED7, False,
     "351ddfc03bb25c0a57f6856a580da18b6529b48ff1c097a9423dbe9ea5a1a365"),
    ("mixed7.g6", _MIXED7, True,
     "2913bdc953fc0c2719f3be3ff8fa51d91477160369b627d7945a78344309a684"),
])
def test_structure_homopairs_modes_report_bytes(name, graph, nonlinear, digest, tmp_path,
                                                monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, name, emit_graph6(graph))
    flag = ["--nonlinear"] if nonlinear else []
    assert run(["structure", "homopairs", name, *flag, "--json", "rep.json"]) == 0
    data = (tmp_path / "rep.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# the path 0-...-6 with two more vertices: 7 sees only 0, and 8 only 6;
# the strip {1..5} has A1 = {1}, A2 = {5}, B1 = {0}, B2 = {6}
_PATH9 = SimpleGraph.from_edges(9, [(i, i + 1) for i in range(6)] + [(0, 7), (6, 8)])
_STRIP = {"H": [1, 2, 3, 4, 5], "A1": [1], "A2": [5], "B1": [0], "B2": [6]}


@pytest.mark.parametrize("case, graph, edit, code, digest", [
    ("pass", _PATH9, {}, 0, "99824e065eb9e5cade24744276a64b9ba0d3e7db20318b198c878dc20bf5b28b"),
    ("(i) empty", _PATH9, {"H": [], "A1": [], "A2": []}, 1,
     "d25227bc39bc39f845c73bf8c4879676f8ca2f2fa9627b9643e9ee9d6354b895"),
    ("(i) ends outside", _PATH9, {"A1": [0]}, 1,
     "facabf597f732dbf14663007126494ab0420f8b313c6fd494b9b3130a5a7bf10"),
    ("(ii) meet", _PATH9, {"B1": [0, 1]}, 1,
     "10f5d090b242b0bd2716ebf9d57f0487d888a890ad605420d6cf0c9e205c3239"),
    ("(i) order", _PATH9, {"A1": [3]}, 1,
     "0d70b994b980809a5d1b16b98c3dbe42af00105bffff2a27b0a2b78383030ac2"),
    # two non-adjacent strip vertices, both in A1
    ("(ii) A1", SimpleGraph.from_edges(4, [(0, 1), (2, 3)]),
     {"H": [1, 2], "A1": [1, 2], "A2": [], "B1": [0], "B2": [3]}, 1,
     "6901dbde6525e27ed841ad4b3ecf625053a2d6380e27a59cbf2dbbbd7671c7c9"),
    ("(ii) A2", SimpleGraph.from_edges(4, [(0, 1), (2, 3)]),
     {"H": [1, 2], "A1": [], "A2": [1, 2], "B1": [0], "B2": [3]}, 1,
     "79bfdaaf9945309754484f4d9e5abe681db69931b9e68467744c21d18d3cb3ff"),
    ("(ii) B1", _PATH9, {"B1": [0, 6], "B2": []}, 1,
     "4816c65c3826a8b7e585f1469575da8b933dea89731d4fbe9b89bcd595305ca3"),
    ("(ii) B2", _PATH9, {"B2": [6, 0]}, 1,
     "819ff2df4da753e74ce5b663dbcbd7450fbcc275d8d1b15a981f0e0f3379c8b6"),
    ("(iii) A1", _PATH9, {"B1": [0, 7]}, 1,
     "cea0177dd71c0db1e8f9adc98fba7ec29e473c4f1f93ddaac3de04b0f9dbe6d6"),
    ("(iii) A2", _PATH9, {"B2": [6, 8]}, 1,
     "b05439eb12588eb0909733db0bfe63f3df07ca9603b8700bb7b3eb5f228a3ecf"),
    ("(iv) stray", _PATH9, {"B2": []}, 1,
     "3bbac2c812a29cdc7b9b1d235be7b5fe7e89ea9ec429db817a58b6b898b12f0d"),
    ("(iv) inner", SimpleGraph.from_edges(9, _PATH9.edge_list() + [(3, 8)]), {}, 1,
     "ff4b162bb56a3fcd21570bc9e321fe08342e8b337cc75bbb0febfa2cdd6ee32f"),
])
def test_structure_2join_verify_report_bytes(case, graph, edit, code, digest, tmp_path,
                                             monkeypatch, capsys):
    # one strip per message, labels shuffled; the report pins the first
    # violation found
    perm = [4, 8, 1, 6, 0, 3, 7, 2, 5] if graph.n == 9 else [2, 0, 3, 1]
    tj = {k: sorted(perm[v] for v in vs) for k, vs in {**_STRIP, **edit}.items()}
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "strip.g6", emit_graph6(_relabel(graph, perm)))
    write(tmp_path, "tj.json", json.dumps(tj))
    assert run(["structure", "2join", "verify", "strip.g6", "tj.json",
                "--json", "rep.json"]) == code
    data = (tmp_path / "rep.json").read_bytes()
    assert (json.loads(data)["results"][0]["payload"]["violation"] or "pass").startswith(
        case.split()[0])
    assert hashlib.sha256(data).hexdigest() == digest


def test_structure_2join_reduce_on_the_a1_side_report_bytes(tmp_path, monkeypatch, capsys):
    # the strip {1..5} of the shuffled 9-vertex path reduces on its A1 side
    perm = [4, 8, 1, 6, 0, 3, 7, 2, 5]
    tj = {k: sorted(perm[v] for v in vs) for k, vs in _STRIP.items()}
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "strip.g6", emit_graph6(_relabel(_PATH9, perm)))
    write(tmp_path, "tj.json", json.dumps(tj))
    assert run(["structure", "2join", "reduce", "strip.g6", "tj.json",
                "--json", "rep.json"]) == 0
    assert hashlib.sha256((tmp_path / "rep.json").read_bytes()).hexdigest() == (
        "fc9ba11ad52d3f891e23e31c25a916430b5ffc6dbda39e39ca9fd0a83de57182")


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


@pytest.mark.parametrize("doc, named", [
    ({"n": 2, "arcs": [["a", 1]]}, "vertex 'a' is not an int"),
    ({"n": 2, "arcs": [[0, 1.0]]}, "vertex 1.0 is not an int"),
    ({"n": -1, "arcs": []}, "vertex count -1"),
], ids=["str-id", "float-id", "negative-n"])
def test_kp_check_refuses_a_bad_digraph_with_exit_2(doc, named, tmp_path, capsys):
    ok = write(tmp_path, "ok.json", json.dumps({"n": 2, "arcs": [[0, 1]]}))
    assert run(["kp", "check", ok]) == 0
    capsys.readouterr()
    assert run(["kp", "check", write(tmp_path, "bad.json", json.dumps(doc))]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_kp_subcommands(tmp_path, capsys):
    b = MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list())
    path = write(tmp_path, "k33.txt", emit_edge_list(b))
    assert run(["kp", "galvin", path]) == 0
    assert run(["kp", "mu3"]) == 0


def test_paint_and_choose(c5_file, capsys):
    assert run(["paint", "solve", c5_file, "--f", "const:3"]) == 0
    assert run(["paint", "solve", c5_file, "--f", "const:2"]) == 1
    assert run(["choose", "solve", c5_file, "--f", "const:2"]) == 1



def _two_components():
    return SimpleGraph.from_edges(7, cycle_graph(5).edge_list() + [(5, 6)])


@pytest.mark.parametrize("name, graph, f, code, digest", [
    ("c5.g6", cycle_graph(5), "const:2", 1,
     "255267042912dacffd5d2a06175142f8ee820529d413312776464a02a03edc29"),
    ("c5k2.g6", _two_components(), "const:2", 1,
     "d527cb308b75009643b52c5a4e2f63775d6969be87a985a492bd4348e56e6bb2"),
    ("k2x3.g6", complete_multipartite_2t(3), "const:3", 0,
     "30ae4b443ecfa390785ffe651ac785e58b1f091415d3d0a0e70d5be79ba15488"),
    ("lk33.g6", line_graph(MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list()))[0],
     "const:3", 0, "803115a6ffe874381a69963cf579663125bc5383f453508f7bafaa0878b3ebbf"),
])
def test_paint_solve_report_bytes(name, graph, f, code, digest, tmp_path, monkeypatch,
                                  capsys):
    # the report names its input by the path given, so run from tmp_path
    monkeypatch.chdir(tmp_path)
    write(tmp_path, name, emit_graph6(graph))
    assert run(["paint", "solve", name, "--f", f, "--json", "rep.json"]) == code
    data = (tmp_path / "rep.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    # the token-list search writes the same bytes
    monkeypatch.setattr(paint, "is_f_paintable", _paintable_token_lists)
    assert run(["paint", "solve", name, "--f", f, "--json", "old.json"]) == code
    assert (tmp_path / "old.json").read_bytes() == data


@pytest.mark.parametrize("adversary, digest", [
    ("exhaustive", "3b986b93a2d3504b325bd78dc81f3775434de0e7176d9904e16d0ce624109ccb"),
    ("random:7", "27ee9b4417048c8e384cb1b9b53559e12fdd10435b56eabfe5bfdc8a562b7224"),
])
def test_paint_play_report_bytes(adversary, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    b = MultiGraph.from_edges(5, [(0, 2, 1), (0, 3, 2), (1, 3, 1), (1, 4, 1)])
    write(tmp_path, "cert.json", json.dumps(kernel.galvin_orientation(b).to_json()))
    argv = ["paint", "play", "--cert", "cert.json", "--adversary", adversary]
    assert run(argv + ["--json", "rep.json"]) == 0
    data = (tmp_path / "rep.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    # the sweep that searches a kernel at every listing writes the same bytes
    monkeypatch.setattr(paint, "kernel_painter_play", _kernel_play_per_listing)
    assert run(argv + ["--json", "old.json"]) == 0
    assert (tmp_path / "old.json").read_bytes() == data


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


def test_structure_clawfree_opens_its_input_once(c5_file, tmp_path, monkeypatch, capsys):
    # one read both hashes the input for the report and feeds the parser
    import builtins

    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert run(["structure", "clawfree", c5_file, "--json", str(tmp_path / "rep.json")]) == 0
    assert opened.count(c5_file) == 1


def test_corpus_itemizes_an_unreadable_file(tmp_path, monkeypatch, capsys):
    import builtins

    d = tmp_path / "corpus"
    d.mkdir()
    (d / "c5.g6").write_text(emit_graph6(cycle_graph(5)))
    (d / "locked.g6").write_text(emit_graph6(cycle_graph(4)))
    locked = str(d / "locked.g6")
    real_open = builtins.open

    def locking_open(file, *args, **kwargs):
        if str(file) == locked:
            raise PermissionError(13, "Permission denied", locked)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", locking_open)
    rep = str(tmp_path / "rep.json")
    assert run(["corpus", str(d), "--task", "at", "--json", rep]) == 1
    doc = json.loads(Path(rep).read_text())
    assert [i["sha256"] is None for i in doc["inputs"]] == [False, True]
    byname = {r["item"]: r for r in doc["results"]}
    assert byname["c5.g6"]["pass"] and not byname["locked.g6"]["pass"]
    assert "Permission denied" in byname["locked.g6"]["payload"]["error"]


@pytest.mark.parametrize("adversary", ["exhaustive", "random:3"])
def test_paint_play_reports_a_failing_certificate(adversary, tmp_path, capsys):
    # the directed triangle has no kernel, so the kernel strategy has
    # nothing to play; the certificate's own check says so first
    from colorcert.kernel import KPCertificate

    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    cert = KPCertificate(cycle_graph(3), ListSizeFn((2, 2, 2)), tri)
    path = write(tmp_path, "cert.json", json.dumps(cert.to_json()))
    rep = tmp_path / "rep.json"
    assert run(["paint", "play", "--cert", path, "--adversary", adversary,
                "--json", str(rep)]) == 1
    [item] = json.loads(rep.read_text())["results"]
    assert not item["pass"] and "error" in item["payload"]


def _without(doc, *path):
    """A copy of a JSON document with the key at `path` removed."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return doc


@pytest.mark.parametrize("kind, path, named", [
    ("2join", ("A1",), "'A1'"),
    ("compose", ("hub_n",), "'hub_n'"),
    ("compose", ("strips", 0, "X"), "'strips[0].X'"),
    ("certificate", ("f",), "'f'"),
])
def test_a_missing_json_key_exits_2(kind, path, named, tmp_path, capsys):
    from colorcert.catalog import two_join_catalog
    from colorcert.kernel import galvin_orientation

    if kind == "2join":
        _, _, g, tj = two_join_catalog()[1]
        argv = ["structure", "2join", "verify", write(tmp_path, "g.g6", emit_graph6(g))]
        doc = tj.to_json()
    elif kind == "compose":
        argv = ["structure", "compose"]
        doc = {"hub_n": 2, "hub_edges": [[0, 1]],
               "strips": [{"n": 2, "edges": [[0, 1]], "X": [0], "Y": [1]}]}
    else:
        argv = ["paint", "play", "--cert"]
        doc = galvin_orientation(MultiGraph.from_edges(3, [(0, 1), (1, 2)])).to_json()
    argv.append(write(tmp_path, "doc.json", json.dumps(doc)))
    assert run(argv) == 0
    argv[-1] = write(tmp_path, "bad.json", json.dumps(_without(doc, *path)))
    assert run(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("probe", sorted(SIZE_PROBES))
def test_a_certificate_on_another_vertex_count_exits_2(probe, tmp_path, capsys):
    b = MultiGraph.from_edges(4, [(0, 2, 1), (0, 3, 1), (1, 2, 2)])
    doc = _without(kernel.galvin_orientation(b).to_json(), "root")
    argv = ["paint", "play", "--cert", write(tmp_path, "doc.json", json.dumps(doc))]
    assert run(argv) == 0
    argv[-1] = write(tmp_path, "bad.json", json.dumps(resized(doc, probe)))
    assert run(argv) == 2
    assert SIZE_PROBES[probe] in capsys.readouterr().err


def test_paint_play_refuses_doubled_pairs_off_the_orientation(tmp_path, capsys):
    g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    doc = kernel.is_f_KP(g, ListSizeFn(tuple(g.degrees())), allow_doubling=True).to_json()
    argv = ["paint", "play", "--cert", write(tmp_path, "doc.json", json.dumps(doc))]
    assert run(argv) == 0
    capsys.readouterr()
    argv[-1] = write(tmp_path, "bad.json", json.dumps(_with(doc, [], "doubled")))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "'doubled'" in err and "Traceback" not in err


def test_paint_play_refuses_a_root_off_the_graph(tmp_path, capsys):
    # the same number of edge copies, so only the comparison of the
    # root's line graph with the graph can refuse them
    b = MultiGraph.from_edges(4, [(0, 2, 1), (0, 3, 1), (1, 2, 2)])
    doc = kernel.galvin_orientation(b).to_json()
    argv = ["paint", "play", "--cert", write(tmp_path, "doc.json", json.dumps(doc))]
    assert run(argv) == 0
    capsys.readouterr()
    for key, value in (("root", {"n": 4, "edges": [[0, 2], [0, 3], [1, 2], [1, 3]]}),
                       ("origin", [[0, 2], [0, 3], [1, 2], [1, 3]])):
        argv[-1] = write(tmp_path, "bad.json", json.dumps(_with(doc, value, key)))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "Traceback" not in err


@pytest.mark.parametrize("hub_edges", [[[0, 3]], [[0, 0], [-1, 0]], [[0]], [["0", 0]], [0]])
def test_compose_with_a_hub_edge_outside_the_hub_exits_2(hub_edges, tmp_path, capsys):
    strip = {"n": 2, "edges": [[0, 1]], "X": [0], "Y": [1]}
    doc = {"hub_n": 1, "hub_edges": [[0, 0]], "strips": [strip]}
    assert run(["structure", "compose", write(tmp_path, "ok.json", json.dumps(doc))]) == 0
    capsys.readouterr()
    doc = {"hub_n": 1, "hub_edges": hub_edges, "strips": [strip] * len(hub_edges)}
    assert run(["structure", "compose", write(tmp_path, "bad.json", json.dumps(doc))]) == 2
    bad = len(hub_edges) - 1
    assert f"hub_edges[{bad}]" in capsys.readouterr().err


@pytest.mark.parametrize("strips, message", [
    ([], "one strip per hub edge required"),
    ([{"n": 3, "edges": [[0, 1]], "X": [0, 2], "Y": [1]}], "strip end X is not a clique"),
    ([{"n": 3, "edges": [[0, 1], [0, 2]], "X": [0], "Y": [1]}],
     "strip end vertex with non-clique outside neighborhood"),    ([{"n": 2, "edges": [[0, 1]], "X": [0, 5], "Y": [1]}], "vertex 5 out of range for n=2"),
])
def test_compose_refuses_a_spec_it_cannot_compose_with_exit_2(strips, message, tmp_path,
                                                              capsys):
    doc = {"hub_n": 2, "hub_edges": [[0, 1]], "strips": strips}
    assert run(["structure", "compose", write(tmp_path, "bad.json", json.dumps(doc))]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _with(doc, value, *path):
    """A copy of a JSON document with the key at `path` set to `value`."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind, path, value, named", [
    ("kp check", ("arcs",), 5, "'arcs'"),
    ("at count", ("arcs",), 5, "'arcs'"),
    ("2join", ("H",), 5, "'H'"),
    ("certificate", ("f",), 5, "'f'"),
    ("certificate", ("f",), ["2", "2"], "'f'"),
    ("certificate", ("origin",), 3, "'origin'"),
    ("certificate", ("doubled",), 3, "'doubled'"),
    ("compose", ("strips", 0, "X"), 5, "'strips[0].X'"),
    ("compose", ("strips",), 5, "'strips'"),
    ("compose", ("hub_edges",), 5, "'hub_edges'"),
    ("certificate", ("root", "edges"), 5, "'root.edges'"),
    ("certificate", ("root", "edges"), [[0, 1, "2"]], "'root.edges'"),
], ids=["kp-check-arcs", "at-count-arcs", "2join-H", "cert-f", "cert-f-strings",
        "cert-origin", "cert-doubled", "compose-X", "compose-strips", "compose-hub-edges",
        "cert-root-edges", "cert-root-edges-strings"])
def test_a_json_value_of_the_wrong_shape_exits_2(kind, path, value, named, tmp_path, capsys):
    from colorcert.catalog import two_join_catalog

    if kind in ("kp check", "at count"):
        argv = kind.split()
        doc = {"n": 3, "arcs": [[0, 1]]}
    elif kind == "2join":
        _, _, g, tj = two_join_catalog()[1]
        argv = ["structure", "2join", "verify", write(tmp_path, "g.g6", emit_graph6(g))]
        doc = tj.to_json()
    elif kind == "compose":
        argv = ["structure", "compose"]
        doc = {"hub_n": 2, "hub_edges": [[0, 1]],
               "strips": [{"n": 2, "edges": [[0, 1]], "X": [0], "Y": [1]}]}
    else:
        argv = ["paint", "play", "--cert"]
        doc = kernel.galvin_orientation(MultiGraph.from_edges(3, [(0, 1), (1, 2)])).to_json()
    argv.append(write(tmp_path, "doc.json", json.dumps(doc)))
    assert run(argv) == 0
    capsys.readouterr()
    argv[-1] = write(tmp_path, "bad.json", json.dumps(_with(doc, value, *path)))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_a_budget_file_that_is_not_a_list_exits_2(c5_file, tmp_path, capsys):
    assert run(["at", "check", c5_file, "--f", "file:" + write(tmp_path, "b.json", "7")]) == 2
    assert "not a JSON list of ints" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", [["discharge", "run"], ["pipeline", "linegraph"]],
                         ids=["discharge", "pipeline"])
@pytest.mark.parametrize("name, host, low, high", [
    # the path 0-1-2 stalls into a witness, K_13 settles into a ledger
    ("p3.txt", MultiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)]), ["1", "2"], "3"),
    ("k13.txt", MultiGraph.from_edges(13, complete_graph(13).edge_list()), ["5", "12"], "13"),
], ids=["witness", "ledger"])
def test_a_delta_not_above_the_maximum_degree_exits_2_before_any_item(
        command, name, host, low, high, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, name, emit_edge_list(host))
    for delta in low:
        assert run(command + [name, "--delta", delta, "--json", "rep.json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: delta must exceed the maximum degree of the host\n"
        assert not (tmp_path / "rep.json").exists()
    assert run(command + [name, "--delta", high, "--json", "rep.json"]) == 0
    assert "FAIL" not in capsys.readouterr().out


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


def test_bkscan_over_the_subset_cap_exits_2_at_once(tmp_path, capsys):
    # C_22 has 4194303 nonempty vertex subsets, four times the cap; with
    # --max-sub 3 the scan visits 1793 of them
    c22 = write(tmp_path, "c22.g6", emit_graph6(cycle_graph(22)))
    assert run(["structure", "bkscan", c22]) == 2
    assert "scan capped at 1048576 vertex subsets, 4194303 asked" in capsys.readouterr().err
    assert run(["structure", "bkscan", c22, "--max-sub", "3"]) == 0
    # under corpus the cap hit is one FAIL item, like the other caps
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "c22.g6").write_text(emit_graph6(cycle_graph(22)))
    (d / "c5.g6").write_text(emit_graph6(cycle_graph(5)))
    rep = str(tmp_path / "corpus.json")
    assert run(["corpus", str(d), "--task", "scan", "--json", rep]) == 1
    byname = {r["item"]: r for r in json.loads(open(rep).read())["results"]}
    assert byname["c5.g6"]["pass"]
    assert byname["c22.g6"]["payload"]["error"].startswith("scan capped at 1048576")


def test_cap_flags_belong_to_corpus(c5_file, capsys):
    for argv in (["structure", "clawfree", c5_file, "--cap-vertices", "3"],
                 ["--cap-edges", "3", "structure", "clawfree", c5_file]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("max_sub", ["0", "-2"])
def test_bkscan_refuses_a_max_sub_that_scans_nothing(max_sub, c5_file, tmp_path, capsys):
    assert run(["structure", "bkscan", c5_file, "--max-sub", max_sub]) == 2
    assert f"max_sub {max_sub} scans no subset" in capsys.readouterr().err
    # under corpus the refusal is one FAIL item
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "c5.g6").write_text(emit_graph6(cycle_graph(5)))
    rep = tmp_path / "rep.json"
    assert run(["corpus", str(d), "--task", "scan", "--max-sub", max_sub,
                "--json", str(rep)]) == 1
    [item] = json.loads(rep.read_text())["results"]
    assert not item["pass"] and "scans no subset" in item["payload"]["error"]


@pytest.mark.parametrize("flag", ["--cap-vertices", "--cap-edges"])
def test_corpus_refuses_a_negative_cap_at_parse_time(flag, tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "c5.g6").write_text(emit_graph6(cycle_graph(5)))
    for value, named in (("-1", "a cap is 0 (none) or more, not -1"),
                         ("x", "invalid int value: 'x'")):
        with pytest.raises(SystemExit) as exc:
            run(["corpus", str(d), "--task", "at", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {named}" in capsys.readouterr().err
    # 0 is no cap
    assert run(["corpus", str(d), "--task", "at", flag, "0"]) == 0


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



def test_a_budget_file_is_hashed_once_per_run(tmp_path, c5_file, capsys):
    budget = tmp_path / "f.json"
    budget.write_text(json.dumps([3, 3, 3, 3, 3]))
    digest = hashlib.sha256(budget.read_bytes()).hexdigest()
    rep = tmp_path / "rep.json"
    assert run(["at", "check", c5_file, "--f", f"file:{budget}", "--json", str(rep)]) == 0
    inputs = json.loads(rep.read_bytes())["inputs"]
    assert [i["sha256"] for i in inputs][1:] == [digest]
    d = tmp_path / "corpus"
    d.mkdir()
    for name, graph in (("c5.g6", cycle_graph(5)), ("k5.g6", complete_graph(5)),
                        ("c4.g6", cycle_graph(4))):
        (d / name).write_text(emit_graph6(graph))
    # the length check stays per graph: only C4 fails it
    assert run(["corpus", str(d), "--task", "at", "--f", f"file:{budget}",
                "--json", str(rep)]) == 1
    doc = json.loads(rep.read_bytes())
    assert [i["sha256"] for i in doc["inputs"]].count(digest) == 1
    assert len(doc["inputs"]) == 4
    byname = {r["item"]: r for r in doc["results"]}
    assert byname["c5.g6"]["pass"] and byname["k5.g6"]["pass"]
    assert byname["c4.g6"]["payload"] == {
        "error": "budget file length does not match the graph"}



@pytest.mark.parametrize("text, named", [(None, "No such file"),
                                         ("7", "not a JSON list of ints")])
def test_corpus_exits_2_on_a_bad_budget_file_before_any_graph(text, named, tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "c5.g6").write_text(emit_graph6(cycle_graph(5)))
    budget = tmp_path / "f.json"
    if text is not None:
        budget.write_text(text)
    rep = tmp_path / "rep.json"
    assert run(["corpus", str(d), "--task", "at", "--f", f"file:{budget}",
                "--json", str(rep)]) == 2
    assert named in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("task", ["at", "scan"])
@pytest.mark.parametrize("spec", ["bogus", "const:x", "lowset:a,b"])
def test_corpus_exits_2_on_a_malformed_budget_specifier_before_any_graph(spec, task, tmp_path,
                                                                        c5_file, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "p3.g6").write_text(emit_graph6(path_graph(3)))
    (d / "c5.g6").write_text(emit_graph6(cycle_graph(5)))
    assert run(["at", "check", c5_file, "--f", spec]) == 2
    single = capsys.readouterr().err
    rep = tmp_path / "rep.json"
    assert run(["corpus", str(d), "--task", task, "--f", spec, "--json", str(rep)]) == 2
    assert capsys.readouterr() == ("", single)
    assert not rep.exists()
    assert run(["corpus", str(d), "--task", task, "--f", "const:3"]) == 0


def test_corpus_scan_reads_no_budget(tmp_path, capsys):
    # the default --f d1 is 0 at a degree-1 vertex of P_4, and the scan
    # never reads --f: only the tasks that take a budget fail on it
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "c5.g6").write_text(emit_graph6(cycle_graph(5)))
    (d / "p4.g6").write_text(emit_graph6(path_graph(4)))
    rep = tmp_path / "rep.json"
    assert run(["corpus", str(d), "--task", "scan", "--json", str(rep)]) == 0
    assert [r["pass"] for r in json.loads(rep.read_bytes())["results"]] == [True, True]
    assert run(["corpus", str(d), "--task", "at", "--json", str(rep)]) == 1
    byname = {r["item"]: r for r in json.loads(rep.read_bytes())["results"]}
    assert byname["c5.g6"]["pass"]
    assert byname["p4.g6"]["payload"] == {
        "error": "budget specifier produced a value below 1"}

# --- the report writer: PATH is rewritten in place, never truncated first

ENTRY_1F = ["catalog", "verify", "--entry", "1f"]


def _fresh_report(tmp_path):
    path = tmp_path / "fresh.json"
    assert run(ENTRY_1F + ["--json", str(path)]) == 0
    return path.read_bytes()


def test_a_report_over_a_longer_stale_file_equals_a_fresh_one(tmp_path, capsys):
    fresh = _fresh_report(tmp_path)
    stale = tmp_path / "stale.json"
    stale.write_bytes(b"x" * (3 * len(fresh)))
    stale.chmod(0o600)
    assert run(ENTRY_1F + ["--json", str(stale)]) == 0
    assert stale.read_bytes() == fresh
    assert (hashlib.sha256(stale.read_bytes()).hexdigest()
            == hashlib.sha256(fresh).hexdigest())
    # an existing file keeps its mode; a new one gets what open(..., "w") gives
    assert stat.S_IMODE(stale.stat().st_mode) == 0o600
    with open(tmp_path / "by_open.json", "w"):
        pass
    assert (stat.S_IMODE((tmp_path / "fresh.json").stat().st_mode)
            == stat.S_IMODE((tmp_path / "by_open.json").stat().st_mode))


def test_a_symlinked_report_path_is_written_through_the_link(tmp_path, capsys):
    fresh = _fresh_report(tmp_path)
    target = tmp_path / "target.json"
    target.write_bytes(b"{" * (2 * len(fresh)))
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run(ENTRY_1F + ["--json", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh


def test_a_report_to_a_fifo_arrives_whole(tmp_path, capsys):
    fresh = _fresh_report(tmp_path)
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert run(ENTRY_1F + ["--json", str(fifo)]) == 0
    finally:
        # a reader still waiting for a writer gets its end of file
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass
        reader.join(10)
    assert got == [fresh]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_a_report_to_dev_stdout_through_a_pipe(tmp_path, capsys):
    fresh = _fresh_report(tmp_path)
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "colorcert.cli"] + ENTRY_1F + ["--json", "/dev/stdout"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert fresh in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_report_to_dev_stdout_redirected_to_a_file_follows_the_lines(unbuffered, tmp_path,
                                                                       capsys):
    # the report goes through stdout's own descriptor after the lines,
    # not from the file's start over them
    fresh = _fresh_report(tmp_path)
    lines = capsys.readouterr().out.encode()
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = tmp_path / "out.txt"
    with open(out, "wb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "colorcert.cli"] + ENTRY_1F + ["--json", "/dev/stdout"],
            env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered), stdout=fh,
            stderr=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == lines + fresh


def test_a_report_to_dash_goes_alone_to_stdout(tmp_path, capsys):
    fresh = _fresh_report(tmp_path)
    lines = capsys.readouterr().out
    assert run(ENTRY_1F + ["--json", "-"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == json.loads(fresh) and out.encode() == fresh
    # the pass/FAIL lines and the count, then the elapsed time
    assert err.startswith(lines) and re.fullmatch(r"elapsed \d+\.\d\ds\n", err[len(lines):])
    # the exit code still says whether every item passed
    c5 = write(tmp_path, "c5.g6", emit_graph6(cycle_graph(5)))
    assert run(["at", "check", c5, "--f", "const:2", "--json", "-"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["results"][0]["pass"] is False
    assert err.startswith("FAIL  orientation certificate\n1 item(s), 0 passed\n")
    assert not (tmp_path / "-").exists()


def test_a_report_to_dash_through_a_pipe_is_one_json_document(tmp_path, capsys):
    fresh = _fresh_report(tmp_path)
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "colorcert.cli"] + ENTRY_1F + ["--json", "-"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == fresh and json.loads(proc.stdout)["command"] == "catalog verify"
    assert proc.stderr.startswith(b"pass  orientation 1f (k4-join-e4-plus-edge)\n1 item(s)")


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_a_report_to_dev_null_exits_0(capsys):
    # /dev/null is seekable, but it refuses to be truncated
    assert run(ENTRY_1F + ["--json", "/dev/null"]) == 0


@pytest.mark.parametrize("path", ["dir", "missing/dir/rep.json"])
def test_a_report_path_that_cannot_be_written_exits_2(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    assert run(ENTRY_1F + ["--json", path]) == 2
    err = capsys.readouterr().err
    assert f"cannot write report {path}: " in err and "input error" not in err


def test_stdout_is_byte_identical_across_runs(c5_file, tmp_path, capsys):
    outs = []
    for _ in range(2):
        assert run(["at", "check", c5_file, "--f", "const:3",
                    "--json", str(tmp_path / "rep.json")]) == 0
        captured = capsys.readouterr()
        outs.append(captured.out)
        assert "elapsed " in captured.err
    assert outs[0] == outs[1]
    assert outs[0].splitlines() == ["pass  orientation certificate", "1 item(s), 1 passed"]


def test_a_json_run_opens_no_file_truncating(c5_file, tmp_path, monkeypatch, capsys):
    import builtins

    budget = write(tmp_path, "f.json", json.dumps([3] * 5))
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "c5.g6").write_text(emit_graph6(cycle_graph(5)))
    rep = str(tmp_path / "rep.json")
    opens = []
    real_os_open, real_open = os.open, builtins.open

    def os_open(path, flags, *args, **kwargs):
        opens.append((str(path), bool(flags & os.O_TRUNC)))
        return real_os_open(path, flags, *args, **kwargs)

    def open_(file, mode="r", *args, **kwargs):
        opens.append((str(file), "w" in mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(builtins, "open", open_)
    for argv in (ENTRY_1F, ["at", "check", c5_file, "--f", "file:" + budget],
                 ["corpus", str(d), "--task", "at", "--f", "file:" + budget]):
        # twice: the second run rewrites a report that already holds data
        for _ in range(2):
            opens.clear()
            assert run(argv + ["--json", rep]) == 0
            assert (rep, False) in opens
            assert [path for path, truncating in opens if truncating] == []

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


# two yes-questions that the degree route leaves open and an orientation
# certificate settles: budgets below degree, not every vertex at degree
_K2X3 = _relabel(complete_multipartite_2t(3), [4, 0, 5, 2, 1, 3])
_K2_JOIN_K2X3 = _relabel(join(complete_graph(2), complete_multipartite_2t(3)),
                         [3, 6, 0, 7, 4, 1, 5, 2])
# a yes-question that neither settles: L(K_{3,3}) at 3 is not 3-AT, but it
# has a Galvin orientation with every out-degree below 3
_LK33 = _relabel(line_graph(MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list()))[0],
                 [7, 3, 0, 5, 8, 1, 4, 6, 2])


@pytest.mark.parametrize("name, graph, f, digest", [
    ("k2x3.g6", _K2X3, "const:3",
     "d2c0b18a1bd47b0a65e7ce2ba88c566d3508baea5c3c3b950b91b1c003c36444"),
    ("k2_join_k2x3.g6", _K2_JOIN_K2X3, "const:5",
     "aabc598b7f0783340c16f7057753bd3195a4eb879399ff705ae1c171485cb693"),
    ("lk33.g6", _LK33, "const:3",
     "261d25d2fdb7e6133ade11462638a67254572a15ae0ca9599dd56c7a7dd6de02"),
])
def test_choose_solve_report_bytes_off_the_degree_route(name, graph, f, digest, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, name, emit_graph6(graph))
    assert run(["choose", "solve", name, "--f", f, "--json", "rep.json"]) == 0
    data = (tmp_path / "rep.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_corpus_paint_report_bytes_off_the_degree_route(tmp_path, monkeypatch, capsys):
    # at d1 both graphs are yes-questions that the degree route leaves open
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus").mkdir()
    write(tmp_path, "corpus/k2x3.g6", emit_graph6(_K2X3))
    write(tmp_path, "corpus/k2_join_k2x3.g6", emit_graph6(_K2_JOIN_K2X3))
    assert run(["corpus", "corpus", "--task", "paint", "--f", "d1", "--json", "rep.json"]) == 0
    data = (tmp_path / "rep.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "8673c3691fe0b9857fdd67f7ff9e429de4782c3ac37010eaff970d31ebb60d87")


def test_importing_the_package_loads_no_hashing_library():
    # hashlib maps the OpenSSL library (about 3 MB resident)
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = ("import sys, colorcert, colorcert.cli, colorcert.discharging; "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_input_digests_match_hashlib(tmp_path):
    report = cli.RunReport("test")
    blobs = [b"", b"abc", emit_graph6(cycle_graph(5)).encode(), bytes(range(256)) * 300]
    for i, data in enumerate(blobs):
        path = tmp_path / f"in{i}"
        path.write_bytes(data)
        assert report.add_input(str(path)) == data
    assert [r["sha256"] for r in report.inputs] == [hashlib.sha256(b).hexdigest() for b in blobs]


def test_a_run_that_hashes_its_input_loads_no_openssl(tmp_path):
    # CPython's built-in sha256 gives the report's digest
    write(tmp_path, "c5.g6", emit_graph6(cycle_graph(5)))
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = ("import sys; from colorcert import cli; "
            "code = cli.main(['at', 'check', 'c5.g6', '--f', 'const:3', '--json', 'rep.json']); "
            "print(code, sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         cwd=tmp_path, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"
    [entry] = json.loads((tmp_path / "rep.json").read_text())["inputs"]
    assert entry["sha256"] == hashlib.sha256((tmp_path / "c5.g6").read_bytes()).hexdigest()


def test_at_check_decides_a_path_longer_than_the_recursion_limit(tmp_path, capsys):
    # 1099 edges: the orientation search is deeper than Python's default
    # recursion limit of 1000
    n = 1100
    lines = [f"{n} {n - 1}"] + [f"{v} {v + 1}" for v in range(n - 1)]
    path = write(tmp_path, "p1100.txt", "\n".join(lines) + "\n")
    rep = str(tmp_path / "rep.json")
    assert run(["at", "check", path, "--f", "const:2", "--json", rep]) == 0
    [result] = json.loads(open(rep).read())["results"]
    cert = ATCertificate.from_json(result["payload"]["certificate"])
    assert cert.graph.n == n and cert.check()


# --- the clique-order catalog: each certificate is built once and checked once

@pytest.mark.parametrize("broken", [False, True], ids=["sound", "broken-3a"])
@pytest.mark.parametrize("argv, prefix", [(["kp", "mu3"], ""),
                                          (["catalog", "verify"], "clique-order ")],
                         ids=["kp-mu3", "catalog-verify"])
def test_a_bad_clique_order_entry_fails_alone(argv, prefix, broken, tmp_path, monkeypatch,
                                              capsys):
    # a wrong stored out-degree row fails its own entry, as a FAIL line
    # and not as an error, and no certificate is checked twice
    from dataclasses import replace

    from colorcert import catalog

    entries = catalog.clique_order_catalog()
    if broken:
        wrong = (0,) * len(entries[0].expected_outdegrees)
        patched = [replace(entries[0], expected_outdegrees=wrong)] + entries[1:]
        monkeypatch.setattr(catalog, "clique_order_catalog", lambda: list(patched))
    checks = []
    check = kernel.KPCertificate.check
    monkeypatch.setattr(kernel.KPCertificate, "check",
                        lambda self: checks.append(self) or check(self))
    rep = tmp_path / "rep.json"
    assert run(argv + ["--json", str(rep)]) == (1 if broken else 0)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    lines = out.splitlines()
    names = [f"{prefix}{e.tag} ({e.name})" for e in entries]
    assert [ln for ln in lines if ln.startswith("FAIL")] == (
        [f"FAIL  {names[0]}"] if broken else [])
    assert all(f"pass  {name}" in lines for name in names[1:])
    assert len(checks) == 3
    [item] = [r for r in json.loads(rep.read_text())["results"] if r["item"] == names[0]]
    assert item["payload"]["outdegrees"] == list(entries[0].expected_outdegrees)
    assert ("out-degree row" in item["payload"].get("error", "")) == broken


# --- every leaf command, once: its report's command string and exit code

def _leaf_inputs(tmp_path):
    """Write one tiny input of each kind into `tmp_path`."""
    from colorcert.catalog import two_join_catalog

    _, _, p5, tj = two_join_catalog()[1]
    k33 = MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list())
    write(tmp_path, "c5.g6", emit_graph6(cycle_graph(5)))
    write(tmp_path, "p5.g6", emit_graph6(p5))
    write(tmp_path, "tj.json", json.dumps(tj.to_json()))
    write(tmp_path, "arc.json", json.dumps({"n": 2, "arcs": [[0, 1]]}))
    write(tmp_path, "k33.txt", emit_edge_list(k33))
    write(tmp_path, "cert.json", json.dumps(kernel.galvin_orientation(k33).to_json()))
    write(tmp_path, "spec.json", json.dumps(
        {"hub_n": 2, "hub_edges": [[0, 1]],
         "strips": [{"n": 2, "edges": [[0, 1]], "X": [0], "Y": [1]}]}))
    (tmp_path / "graphs").mkdir()
    write(tmp_path / "graphs", "c5.g6", emit_graph6(cycle_graph(5)))


@pytest.mark.parametrize("argv, command, code", [
    ("at count arc.json", "at count", 0),
    ("at check c5.g6 --f const:3", "at check", 0),
    ("at coeff c5.g6 --exponents 2,1,1,1,0", "at coeff", 0),
    ("kp check arc.json", "kp check", 0),
    ("kp search c5.g6 --f const:2", "kp search", 1),
    ("kp galvin k33.txt", "kp galvin", 0),
    ("kp mu3", "kp mu3", 0),
    ("paint solve c5.g6 --f const:2", "paint solve", 1),
    ("paint play --cert cert.json", "paint play", 0),
    ("choose solve c5.g6 --f const:2", "choose solve", 1),
    ("structure clawfree c5.g6", "structure clawfree", 0),
    ("structure quasiline c5.g6", "structure quasiline", 0),
    ("structure linegraph c5.g6", "structure linegraph", 0),
    ("structure homopairs c5.g6", "structure homopairs", 0),
    ("structure circular c5.g6", "structure circular", 0),
    ("structure bkscan c5.g6 --max-sub 2", "structure bkscan", 0),
    ("structure compose spec.json", "structure compose", 0),
    ("structure 2join verify p5.g6 tj.json", "structure 2join", 0),
    ("structure 2join reduce p5.g6 tj.json", "structure 2join", 0),
    ("discharge run k33.txt", "discharge run", 0),
    ("discharge partition k33.txt", "discharge partition", 0),
    ("discharge degeneracy k33.txt", "discharge degeneracy", 0),
    ("catalog verify --entry 1f", "catalog verify", 0),
    ("pipeline linegraph k33.txt", "pipeline linegraph", 0),
    ("corpus graphs --task at", "corpus at", 0),
    ("corpus graphs --task kp", "corpus kp", 0),
    ("corpus graphs --task paint", "corpus paint", 0),
    ("corpus graphs --task scan --max-sub 2", "corpus scan", 0),
])
def test_every_leaf_command_names_its_report(argv, command, code, tmp_path, monkeypatch,
                                             capsys):
    monkeypatch.chdir(tmp_path)
    _leaf_inputs(tmp_path)
    assert run(argv.split() + ["--json", "rep.json"]) == code
    assert json.loads((tmp_path / "rep.json").read_text())["command"] == command


# --- the README's cap table: each command one vertex over its cap

def _over_cap_inputs(tmp_path):
    """Write one input just over each cap into `tmp_path`."""
    for n in (9, 10, 13, 21):
        write(tmp_path, f"c{n}.g6", emit_graph6(cycle_graph(n)))
    write(tmp_path, "p11.g6", emit_graph6(path_graph(11)))
    write(tmp_path, "strip11.json", json.dumps(
        {"H": list(range(11)), "A1": [0], "A2": [10], "B1": [], "B2": []}))
    write(tmp_path, "arcless13.json", json.dumps(digraph_to_json(Digraph.from_arcs(13, []))))
    # no root, so its check is the exhaustive one
    write(tmp_path, "rootless13.json", json.dumps(kernel.KPCertificate(
        SimpleGraph.from_edges(13, []), ListSizeFn.constant(13, 1),
        Digraph.from_arcs(13, [])).to_json()))
    # a bipartite root, so its check passes by the star test, on 21 vertices
    write(tmp_path, "p21.json", json.dumps(kernel.galvin_orientation(
        MultiGraph.from_edges(22, path_graph(22).edge_list())).to_json()))
    # the star-order fallback host of `test_multigraph_report_bytes`,
    # padded with isolated root vertices
    write(tmp_path, "irregular301.txt", emit_edge_list(MultiGraph.from_edges(
        kernel.STAR_ORDER_DEPTH + 1, [(0, 2, 1), (0, 4, 2), (0, 6, 1), (1, 5, 1), (1, 6, 2),
                                      (2, 3, 1), (3, 4, 1), (3, 5, 2), (3, 6, 1)])))


@pytest.mark.parametrize("argv, message", [
    ("kp check arcless13.json", "exhaustive check capped at 12 vertices"),
    ("paint play --cert rootless13.json", "exhaustive check capped at 12 vertices"),
    ("kp search c9.g6 --f const:2", "search capped at 8 vertices"),
    ("paint solve c10.g6 --f const:2", "solver capped at 9 vertices"),
    ("choose solve c10.g6 --f const:2", "solver capped at 9 vertices"),
    ("kp galvin irregular301.txt",
     "star-order search capped at 300 root vertices and as many edge copies at a vertex"),
    ("paint play --cert p21.json", "exhaustive sweep capped at 20 vertices"),
    ("structure linegraph c13.g6", "recognition capped at 12 vertices"),
    ("structure homopairs c13.g6", "search capped at 12 vertices"),
    ("structure circular c10.g6", "search capped at 9 vertices"),
    ("structure 2join verify p11.g6 strip11.json",
     "interval-order search capped at 10 strip vertices"),
    ("structure 2join reduce p11.g6 strip11.json",
     "interval-order search capped at 10 strip vertices"),
    ("structure bkscan c21.g6",
     "scan capped at 1048576 vertex subsets, 2097151 asked; lower --max-sub"),
])
def test_a_command_one_vertex_over_its_cap_exits_2(argv, message, tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    _over_cap_inputs(tmp_path)
    capsys.readouterr()
    assert run(argv.split()) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("task, graph, message", [
    ("kp", "c9.g6", "search capped at 8 vertices"),
    ("paint", "c10.g6", "solver capped at 9 vertices"),
])
def test_a_corpus_graph_over_a_cap_is_one_failed_item(task, graph, message, tmp_path,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    _over_cap_inputs(tmp_path)
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / graph).write_bytes((tmp_path / graph).read_bytes())
    assert run(["corpus", "corpus", "--task", task, "--json", "rep.json"]) == 1
    [item] = json.loads((tmp_path / "rep.json").read_text())["results"]
    assert item == {"item": graph, "pass": False, "payload": {"error": message}}


def test_every_capped_message_reads_a_constant_the_readme_lists():
    # a cap is a row of the table, or a search no command reaches, which
    # the README marks library-only; either way with its value
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("The exhaustive searches that the CLI can reach", 1)[1]
    section = section.split("A command on a single input", 1)[0]
    listed = [line for line in section.splitlines() if line.startswith("| ")]
    listed += [par for par in section.split("\n\n") if "library-only" in par]
    found = 0
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        module = importlib.import_module(f"colorcert.{path.stem}")
        for name in re.findall(r"capped at \{([A-Z_]+)\}", path.read_text()):
            found += 1
            values = {int(a) << int(b or 0) for line in listed
                      for a, b in re.findall(rf"\b{name} = (\d+)(?: << (\d+))?", line)}
            assert values == {getattr(module, name)}, (path.name, name, values)
    assert found >= 10
