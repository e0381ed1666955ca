import argparse
import collections
import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

import helpers
from fanscheme import cli, cones, fans, lattice
from fanscheme.cli import entry
from fanscheme.cones import cone_from_rays, dual_cone


def write_fan(tmp_path, rank, ray_lists, name="fan.json", options=None):
    doc = {
        "lattice_rank": str(rank),
        "cones": [{"rays": [[str(c) for c in r] for r in rays]}
                  for rays in ray_lists],
    }
    if options is not None:
        doc["options"] = options
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_base(tmp_path, data, name="base.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


FIELD_BASE = {
    "affine": "yes",
    "integral": "yes",
    "regular": "yes",
    "noetherian": "yes",
    "jacobsonian": "yes",
    "universally_catenary": "yes",
    "equidimensional": "yes",
    "empty": "no",
    "dim": ["0", "0"],
}


def run_cli(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_accepts_and_counts(tmp_path, capsys):
    path = write_fan(tmp_path, 1, [[(1,)], [(-1,)]])
    code, out, err = run_cli(capsys, "validate", "--fan", path)
    assert code == 0
    assert err == ""
    assert out.endswith("\n")
    assert json.loads(out) == {"valid": True, "lattice_rank": 1, "cones": 3}


def test_validate_without_auto_close_rejects(tmp_path, capsys):
    path = write_fan(tmp_path, 1, [[(1,)], [(-1,)]])
    code, out, _ = run_cli(capsys, "validate", "--fan", path, "--no-auto-close")
    assert code == 2
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["kind"] == "missing-face"


def test_document_option_can_disable_auto_close(tmp_path, capsys):
    path = write_fan(tmp_path, 1, [[(1,)], [(-1,)]],
                     options={"auto_close_faces": False})
    code, out, _ = run_cli(capsys, "validate", "--fan", path)
    assert code == 2
    assert json.loads(out)["kind"] == "missing-face"


def test_validate_rejects_non_pointed_cone(tmp_path, capsys):
    path = write_fan(tmp_path, 1, [[(1,), (-1,)]])
    code, out, _ = run_cli(capsys, "validate", "--fan", path)
    assert code == 2
    assert json.loads(out)["kind"] == "non-pointed-cone"


def test_validate_rejects_overlapping_cones(tmp_path, capsys):
    path = write_fan(tmp_path, 2, [[(1, 0), (0, 1)], [(1, 1), (-1, 1)]])
    code, out, _ = run_cli(capsys, "validate", "--fan", path)
    assert code == 2
    assert json.loads(out)["kind"] == "bad-intersection"


def test_malformed_documents_exit_one(tmp_path, capsys):
    garbled = tmp_path / "broken.json"
    garbled.write_text("{")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for argv in (
        ["validate", "--fan", str(garbled)],
        ["validate", "--fan", str(tmp_path / "absent.json")],
        ["validate", "--fan", str(latin)],
        ["validate", "--fan", str(deep)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err


def test_document_shape_errors_exit_one(tmp_path, capsys):
    bad_key = tmp_path / "key.json"
    bad_key.write_text(json.dumps({"lattice_rank": 2, "conez": []}))
    bad_ray = tmp_path / "ray.json"
    bad_ray.write_text(json.dumps(
        {"lattice_rank": 2, "cones": [{"rays": [["1"]]}]}
    ))
    bad_rank = tmp_path / "rank.json"
    bad_rank.write_text(json.dumps({"lattice_rank": "two", "cones": []}))
    for path in (bad_key, bad_ray, bad_rank):
        code, out, err = run_cli(capsys, "validate", "--fan", str(path))
        assert code == 1, path
        assert err


def test_cone_index_out_of_range_exits_one(tmp_path, capsys):
    path = write_fan(tmp_path, 2, [[(1, 0), (1, 2)]])
    code, _, err = run_cli(capsys, "dual", "--fan", path, "--cone", "9")
    assert code == 1
    assert "out of range" in err


def test_usage_errors_exit_one(tmp_path, capsys):
    assert entry(["frobnicate"]) == 1
    capsys.readouterr()
    assert entry([]) == 1
    capsys.readouterr()
    assert entry(["validate"]) == 1
    capsys.readouterr()


def test_hilbert_of_wedge_interior(tmp_path, capsys):
    path = write_fan(tmp_path, 2, [[(1, 0), (1, 2)]])
    # cones sort as (zero, ray(1,0), ray(1,2), wedge)
    code, out, _ = run_cli(capsys, "hilbert", "--fan", path, "--cone", "3")
    assert code == 0
    assert json.loads(out) == {
        "cone": 3,
        "hilbert_basis": [["1", "0"], ["1", "1"], ["1", "2"]],
        "lineality_basis": [],
    }


def test_dual_of_wedge(tmp_path, capsys):
    path = write_fan(tmp_path, 2, [[(1, 0), (1, 2)]])
    code, out, _ = run_cli(capsys, "dual", "--fan", path, "--cone", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == [["0", "1"], ["1", "0"], ["2", "-1"]]
    assert doc["hilbert_basis"] == doc["generators"]
    assert doc["lineality_basis"] == []


def test_faces_listing_with_witnesses(tmp_path, capsys):
    path = write_fan(tmp_path, 2, [[(1, 0), (1, 2)]])
    code, out, _ = run_cli(capsys, "faces", "--fan", path, "--cone", "3")
    assert code == 0
    doc = json.loads(out)
    assert [f["dim"] for f in doc["faces"]] == [0, 1, 1, 2]
    assert doc["faces"][0]["witness"] == ["2", "0"]
    assert doc["faces"][1] == {
        "dim": 1, "rays": [["1", "0"]], "witness": ["0", "1"],
    }
    assert doc["faces"][3]["witness"] == ["0", "0"]


def test_regularity_command(tmp_path, capsys):
    path = write_fan(tmp_path, 2, [[(1, 0), (1, 2)]])
    code, out, _ = run_cli(capsys, "regularity", "--fan", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["regular"] is False
    flagged = [c["index"] for c in doc["cones"] if not c["regular"]]
    assert flagged == [3]


def test_complete_command(tmp_path, capsys):
    p2 = write_fan(
        tmp_path, 2,
        [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]],
        name="p2.json",
    )
    code, out, _ = run_cli(capsys, "complete", "--fan", p2)
    assert code == 0
    assert json.loads(out) == {"complete": True, "full": True}
    wedge = write_fan(tmp_path, 2, [[(1, 0), (1, 2)]], name="wedge.json")
    code, out, _ = run_cli(capsys, "complete", "--fan", wedge)
    assert json.loads(out) == {"complete": False, "full": True}


def test_atlas_of_projective_line(tmp_path, capsys):
    path = write_fan(tmp_path, 1, [[(1,)], [(-1,)]])
    code, out, _ = run_cli(capsys, "atlas", "--fan", path)
    assert code == 0
    doc = json.loads(out)
    assert [c["generators"] for c in doc["charts"]] == [
        [["1"], ["-1"]], [["-1"]], [["1"]],
    ]
    assert doc["transitions"] == [
        {"lower": 0, "upper": 1, "element": ["-1"],
         "shifts": [{"generator": ["1"], "power": 1},
                    {"generator": ["-1"], "power": 0}]},
        {"lower": 0, "upper": 2, "element": ["1"],
         "shifts": [{"generator": ["1"], "power": 0},
                    {"generator": ["-1"], "power": 1}]},
    ]
    assert doc["sections"] == [0, 1, 2]
    assert doc["openly_immersive"] == "yes"
    assert doc["separated"] is True


def test_atlas_rejects_negative_search_bound(tmp_path, capsys):
    path = write_fan(tmp_path, 1, [[(1,)], [(-1,)]])
    code, out, err = run_cli(capsys, "atlas", "--fan", path, "--search-bound", "-3")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "--search-bound" in err
    code, out, _ = run_cli(capsys, "atlas", "--fan", path, "--search-bound", "0")
    assert code == 0 and json.loads(out)["openly_immersive"] == "yes"
    # two crossing cones left unclosed are rejected (exit 2), but a bad
    # bound is refused before the fan is read
    crossing = write_fan(tmp_path, 2, [[(1, 0), (0, 1)], [(1, 1), (-1, 1)]],
                         name="crossing.json")
    assert run_cli(capsys, "atlas", "--fan", crossing, "--no-auto-close")[0] == 2
    code, out, err = run_cli(capsys, "atlas", "--fan", crossing, "--no-auto-close",
                             "--search-bound", "-1")
    assert (code, out, err) == (1, "", "--search-bound must be nonnegative, got -1\n")


def test_every_subcommand_reads_its_fan_document_once(tmp_path, capsys,
                                                      monkeypatch):
    path = write_fan(tmp_path, 1, [[(1,)], [(-1,)]])
    real = cli.load_fan_document
    loads = []

    def counted(*args, **kwargs):
        loads.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "load_fan_document", counted)
    for argv in (["validate"], ["hilbert", "--cone", "0"],
                 ["dual", "--cone", "0"], ["faces", "--cone", "0"],
                 ["regularity"], ["complete"], ["atlas"], ["fullify"],
                 ["report"]):
        loads.clear()
        code = run_cli(capsys, *argv, "--fan", path)[0]
        assert (code, loads) == (0, [path]), argv


def test_certificate_checks_survive_optimized_mode():
    script = (
        "from fanscheme.cones import FaceLattice, cone_from_rays, faces\n"
        "from fanscheme.monoids import dual_monoid, localization_certificate\n"
        "sigma = cone_from_rays(2, [(1, 0), (0, 1)])\n"
        "tau = cone_from_rays(2, [(1, 0)])\n"
        "fl = faces(sigma)\n"
        "bad = FaceLattice(sigma, fl.faces, {**fl.witnesses, tau: (0, 0)})\n"
        "try:\n"
        "    localization_certificate(dual_monoid(sigma), dual_monoid(tau),\n"
        "                             sigma, tau, lattice=bad)\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "witness does not cut out the face\n"


def test_fullify_command_round_trips(tmp_path, capsys):
    path = write_fan(tmp_path, 2, [[(2, 4)]])
    code, out, _ = run_cli(capsys, "fullify", "--fan", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["torus_rank"] == 1
    assert doc["basis"] == [["1", "2"]]
    assert doc["reduced"]["lattice_rank"] == 1
    assert doc["reduced"]["cones"] == [{"rays": []}, {"rays": [["1"]]}]
    assert doc["cone_map"] == [[0, 0], [1, 1]]
    # the reduced fan is itself a loadable document
    reduced_path = tmp_path / "reduced.json"
    reduced_path.write_text(json.dumps(doc["reduced"]))
    code, out, _ = run_cli(capsys, "validate", "--fan", str(reduced_path))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_fullify_of_a_full_fan_keeps_its_cones(tmp_path, capsys, monkeypatch):
    # the rays of P^4 span ZZ^4, whose saturated basis is the identity, so
    # fullify neither saturates nor rebuilds a cone.  It prints the reduced
    # fan and cone map that the general path prints for the copy of P^4 in
    # the first four coordinates of ZZ^5
    e = [[int(i == j) for j in range(4)] for i in range(4)]
    rays = e + [[-1] * 4]
    tops = [[r for r in rays if r != skip] for skip in rays]
    fan = fans.complete_under_faces(fans.Fan(4, [cone_from_rays(4, t) for t in tops]))
    calls = []
    for module, name in ((fans, "_face_cone"), (lattice, "perp_rows")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    result = fans.fullify(fan)
    assert calls == [] and len(fan) == 31
    assert result.reduced.cones == fan.cones
    assert result.cone_map == tuple(zip(fan.cones, fan.cones))
    monkeypatch.undo()
    outputs = []
    for n, pad in ((4, []), (5, [0])):
        path = write_fan(tmp_path, n, [[r + pad for r in t] for t in tops],
                         name="p4_in_rank%d.json" % n)
        code, out, _ = run_cli(capsys, "fullify", "--fan", path)
        assert code == 0
        outputs.append(json.loads(out))
    full, moved = outputs
    assert (full["torus_rank"], moved["torus_rank"]) == (0, 1)
    assert full["basis"] == [[str(x) for x in r] for r in e] and full["complement"] == []
    assert moved["basis"] == [[str(x) for x in r + [0]] for r in e]
    assert json.dumps(full["reduced"]) == json.dumps(moved["reduced"])
    assert full["cone_map"] == moved["cone_map"] == [[i, i] for i in range(31)]


def test_report_over_field_base(tmp_path, capsys):
    p2 = write_fan(
        tmp_path, 2,
        [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]],
    )
    base = write_base(tmp_path, FIELD_BASE)
    code, out, _ = run_cli(capsys, "report", "--fan", p2, "--base", base)
    assert code == 0
    records = {r["property"]: r for r in json.loads(out)}
    assert len(records) == 35
    assert records["morphism.proper"]["verdict"] == "yes"
    assert records["scheme.regular"]["verdict"] == "yes"
    assert records["scheme.dim"]["interval"] == ["2", "2"]
    assert records["morphism.proper"]["citation"] \
        == "properness-completeness-criterion"
    # byte determinism across runs
    code2, out2, _ = run_cli(capsys, "report", "--fan", p2, "--base", base)
    assert (code2, out2) == (0, out)


def test_report_without_base_stays_cautious(tmp_path, capsys):
    wedge = write_fan(tmp_path, 2, [[(1, 0), (1, 2)]])
    code, out, _ = run_cli(capsys, "report", "--fan", wedge)
    assert code == 0
    records = {r["property"]: r for r in json.loads(out)}
    assert records["morphism.proper"]["verdict"] == "unknown"
    assert records["scheme.reduced"]["verdict"] == "unknown"
    assert records["morphism.flat"]["verdict"] == "yes"


def test_report_rejects_contradictory_base(tmp_path, capsys):
    fan = write_fan(tmp_path, 1, [[(1,)]])
    base = write_base(tmp_path, {"integral": "yes", "reduced": "no"})
    code, out, _ = run_cli(capsys, "report", "--fan", fan, "--base", base)
    assert code == 2
    assert json.loads(out)["kind"] == "inconsistent-base"


def test_bad_base_document_exits_one(tmp_path, capsys):
    fan = write_fan(tmp_path, 1, [[(1,)]])
    base = write_base(tmp_path, {"shiny": "yes"})
    code, out, err = run_cli(capsys, "report", "--fan", fan, "--base", base)
    assert code == 1
    assert err


def test_module_execution_matches_entry(tmp_path):
    path = write_fan(tmp_path, 1, [[(1,)], [(-1,)]])
    proc = subprocess.run(
        [sys.executable, "-m", "fanscheme.cli", "complete", "--fan", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"complete": True, "full": True}


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsys,
                                                        monkeypatch):
    # one process runs usage errors, help, answers and rejections in turn;
    # each call must print what a fresh process prints for the same argv
    monkeypatch.setenv("COLUMNS", "80")
    good = write_fan(tmp_path, 1, [[(1,)], [(-1,)]], name="good.json")
    crossing = write_fan(tmp_path, 2, [[(1, 0), (0, 1)], [(1, 1), (-1, 1)]],
                         name="crossing.json")
    sequence = [
        (["frobnicate"], 1),
        ([], 1),
        (["validate"], 1),
        (["--help"], 0),
        (["validate", "--help"], 0),
        (["complete", "--fan", good], 0),
        (["validate", "--fan", crossing], 2),
        (["atlas", "--fan", good, "--search-bound", "-1"], 1),
        (["complete", "--fan", good], 0),
    ]
    for argv, expected in sequence:
        got = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "fanscheme.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"},
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert got[0] == expected, argv
    assert json.loads(got[1]) == {"complete": True, "full": True}


def test_later_calls_build_no_parser(tmp_path, capsys, monkeypatch):
    # the first call may build the parser, or find it built by an earlier
    # test; the calls after it construct none
    path = write_fan(tmp_path, 1, [[(1,)], [(-1,)]])
    assert run_cli(capsys, "complete", "--fan", path)[0] == 0
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["complete", "--fan", path], ["frobnicate"],
                 ["validate", "--fan", path]):
        assert run_cli(capsys, *argv)[0] in (0, 1)
    assert built == []


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "real = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    real(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import fanscheme.cli\n"
        "print(len(built))\n"
        "fanscheme.cli.entry(['frobnicate'])\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == "0" and int(after) > 0


def test_huge_integers_are_refused_with_a_short_message(tmp_path, capsys):
    # (ray, base dim) texts; past the interpreter's int/str digit limit
    # even decimal input is refused
    cases = [("\"%sx\"" % ("1" * 4999), None), (None, "\"%sx\"" % ("1" * 4999))]
    if hasattr(sys, "get_int_max_str_digits"):
        big = "1" * 5000
        cases += [(big, None), ("\"%s\"" % big, None), (None, "\"%s\"" % big)]
    fan = write_fan(tmp_path, 1, [[(1,)]])
    bad_fan, base = tmp_path / "bad.json", tmp_path / "base.json"
    for ray, dim in cases:
        if dim is None:
            bad_fan.write_text(
                '{"lattice_rank": 1, "cones": [{"rays": [[%s]]}]}' % ray
            )
            argv = ["validate", "--fan", str(bad_fan)]
        else:
            base.write_text('{"dim": [%s, "inf"]}' % dim)
            argv = ["report", "--fan", fan, "--base", str(base)]
        proc = subprocess.run(
            [sys.executable, "-m", "fanscheme.cli", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1, (ray or dim)[-20:]
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert 0 < len(proc.stderr.encode()) < 300, proc.stderr
        assert ("base.json" in proc.stderr) == (dim is not None), proc.stderr
        assert "set_int_max_str_digits" not in proc.stderr
        if (ray or dim).endswith('x"'):
            assert "is not a decimal integer" in proc.stderr, proc.stderr
        else:
            assert "has 5000 digits" in proc.stderr, proc.stderr
            limit = "at most %d digits" % sys.get_int_max_str_digits()
            assert limit in proc.stderr, proc.stderr


def test_hilbert_bases_past_the_budget_exit_one(tmp_path, capsys):
    # the cyclic cone (k,1,0),(0,k,1),(1,0,k) is a simplex of multiplicity
    # k^3 + 1 with unimodular 2-faces, so at k = 200 it would list 8,000,000
    # parallelepiped points; `dual` of its dual cone meets the same simplex.
    # Cone 7 is the top cone of the face-closed fan
    k = 200
    cyclic = [(k, 1, 0), (0, k, 1), (1, 0, k)]
    dual = [(1, -k, k * k), (k * k, 1, -k), (-k, k * k, 1)]
    for command, rays in (("hilbert", cyclic), ("dual", dual)):
        path = write_fan(tmp_path, 3, [rays], name=command + ".json")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--fan", path, "--cone", "7")
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        assert err == (
            "Hilbert basis needs more than 100000 parallelepiped points (the "
            "simplices to enumerate have multiplicity 8000001 in total)\n"
        )


def test_a_walk_past_the_budget_exits_one(tmp_path, capsys):
    # the Hilbert basis of the wedge (1,0),(1,10^12) is the walk through its
    # 10^12 - 1 points (1,j) between the rays; the walk stops once it has
    # made more than the budget.  Cone 3 is the wedge itself
    path = write_fan(tmp_path, 2, [[(1, 0), (1, 10**12)]])
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "hilbert", "--fan", path, "--cone", "3")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        "Hilbert basis needs more than 100000 points on the walk of one 2-face "
        "(of multiplicity 1000000000000)\n"
    )


def test_fan_commands_take_kernels_only_for_dual_sides_they_read(
        tmp_path, capsys, monkeypatch):
    # closing the five cones of P^4 under faces and validating the fan
    # builds 26 faces; these commands read none of their normals, so no
    # kernel is taken (81 when every face was built with its dual side).
    # atlas on P^3 reads the dual side of every face, each once: a face's
    # dual lineality is one kernel, its perp, and the one double
    # description pass for its normals starts from the kernel of that perp
    calls = []
    real = lattice.perp_rows

    def counted(rows, cols):
        calls.append(cols)
        return real(rows, cols)

    monkeypatch.setattr(lattice, "perp_rows", counted)
    monkeypatch.setattr(cones, "perp_rows", counted)
    for n, argvs, kernels in (
        (4, [["validate"], ["complete"], ["regularity"], ["report"],
             ["faces", "--cone", "30"]], 0),
        (3, [["atlas"]], 37),
    ):
        rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        rays.append((-1,) * n)
        path = write_fan(tmp_path, n, [[r for r in rays if r != skip] for skip in rays])
        for argv in argvs:
            calls.clear()
            assert run_cli(capsys, argv[0], "--fan", path, *argv[1:])[0] == 0
            assert len(calls) == kernels, argv


def test_dual_of_a_rank_five_cone_finishes(tmp_path, capsys):
    # the Smith form of a quotient of this cone's dual once grew without
    # bound; cone 15 is the 4-ray cone, the top of the 16 cones after closing
    rays = [(-3, 2, 0, -2, 3), (3, 3, 3, -1, 1), (2, 1, -2, 1, 3), (1, -3, 0, 0, 2)]
    path = write_fan(tmp_path, 5, [rays])
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "dual", "--fan", path, "--cone", "15")
    assert time.perf_counter() - start < 5
    assert code == 0
    doc = json.loads(out)
    dual = dual_cone(cone_from_rays(5, rays)).generator_rows()
    pointed = [tuple(int(x) for x in g) for g in doc["hilbert_basis"]]
    assert pointed and doc["lineality_basis"]
    for g in pointed:
        assert helpers.fm_cone_contains(dual, g, 5), g


def test_validating_a_rank_six_cone_on_twenty_generators_finishes(tmp_path):
    # a document of under 500 bytes: the double description of this cone
    # meets hundreds of thousands of positive/negative pairs, few of them
    # adjacent; combining every pair before testing it took 14-19 s
    rng = random.Random(1)
    gens = [[1] + [rng.randint(-4, 4) for _ in range(5)] for _ in range(20)]
    path = tmp_path / "rank6.json"
    path.write_text(json.dumps({"lattice_rank": 6, "cones": [{"rays": gens}]}))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fanscheme.cli", "validate", "--fan", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 8
    assert proc.returncode == 0, proc.stderr[-300:]
    assert json.loads(proc.stdout) == {"cones": 1024, "lattice_rank": 6, "valid": True}


def test_hostile_integers_exit_zero_or_one_without_a_traceback(tmp_path):
    # the one cone on (B,1,0), (0,B,1), (1,0,B) with B = 10**2500: its face
    # witnesses, and the multiplicity its Hilbert basis would list, are
    # past the interpreter's int/str digit limit; so is the dimension
    # interval over a base of dimension up to 4,300 nines.  `dual` of the
    # cone and `atlas` walk along a 2-face of the dual cone whose
    # multiplicity is past that limit too, until the walk's work budget
    # stops them
    resource = pytest.importorskip("resource")
    b = 10**2500
    big = write_fan(tmp_path, 3, [[(b, 1, 0), (0, b, 1), (1, 0, b)]])
    plane = write_fan(tmp_path, 2, [[(1, 0), (0, 1)]], name="plane.json")
    base = write_base(tmp_path, {"dim": ["0", "9" * 4300]})
    runs = [[c, "--fan", big] for c in
            ("validate", "complete", "regularity", "fullify", "report")]
    runs += [[c, "--fan", big, "--cone", str(i)]
             for c in ("faces", "hilbert") for i in range(8)]
    runs += [["dual", "--fan", big, "--cone", "7"], ["atlas", "--fan", big]]
    runs.append(["report", "--fan", plane, "--base", base])

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

    refused = 0
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "fanscheme.cli"] + argv,
            capture_output=True, text=True, timeout=60, preexec_fn=capped,
        )
        assert proc.returncode in (0, 1), (argv, proc.stderr[-300:])
        assert "Traceback" not in proc.stderr, (argv, proc.stderr[-300:])
        if hasattr(sys, "get_int_max_str_digits") and proc.returncode:
            limit = "more than %d digits" % sys.get_int_max_str_digits()
            assert limit in proc.stderr, (argv, proc.stderr)
            refused += 1
    if hasattr(sys, "get_int_max_str_digits"):
        # faces of the three 2-faces and the cone, hilbert and dual of the
        # cone, atlas, and the report over the long base
        assert refused == 8


def test_validating_a_large_fan_builds_no_pairwise_table(tmp_path):
    # the 128 top cones of (P^1)^7 close to 2,187 cones, 2.4 million pairs:
    # a table over every pair of cones needs 300-400 MB, and validation
    # builds none, so it fits in 200 MB of address space
    resource = pytest.importorskip("resource")
    e = [tuple(int(i == j) for j in range(7)) for i in range(7)]
    tops = [[tuple(s * x for x in v) for s, v in zip(signs, e)]
            for signs in itertools.product((1, -1), repeat=7)]
    path = write_fan(tmp_path, 7, tops)

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (200 * 10**6, 200 * 10**6))

    proc = subprocess.run(
        [sys.executable, "-m", "fanscheme.cli", "validate", "--fan", path],
        capture_output=True, text=True, timeout=60, preexec_fn=capped,
    )
    assert proc.returncode == 0, proc.stderr[-300:]
    assert json.loads(proc.stdout) == {"cones": 2187, "lattice_rank": 7, "valid": True}


def test_cli_survives_fuzzed_documents(tmp_path):
    # every subcommand on generated fan and base documents, well-formed and
    # not: no traceback, and an exit code from the documented three
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    small = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(str))
    junk = st.one_of(
        st.sampled_from(["", "x", "1.5", "1e3", "0x1", " 2 ", "+1", "-0",
                         "٣", "9" * 5000]),
        st.booleans(),
        st.none(),
        st.floats(width=16),
    )
    scalar = st.one_of(small, junk)
    anything = st.recursive(
        scalar,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(
                st.sampled_from(["lattice_rank", "cones", "rays", "options",
                                 "dim", "affine", "x"]),
                inner,
                max_size=3,
            ),
        ),
        max_leaves=8,
    )

    @st.composite
    def fan_documents(draw):
        if draw(st.integers(0, 9)) == 0:
            return draw(anything)
        rank = draw(st.integers(0, 4))
        good = draw(st.integers(0, 2)) > 0
        coordinate = small if good else scalar

        def ray():
            size = rank if good else draw(st.integers(max(rank - 1, 0), rank + 1))
            return draw(st.lists(coordinate, min_size=size, max_size=size))

        cones = [
            {"rays": [ray() for _ in range(draw(st.integers(0, 4)))]}
            for _ in range(draw(st.integers(0, 3)))
        ]
        doc = {
            "lattice_rank": draw(st.sampled_from([rank, str(rank)]) if good
                                 else st.one_of(st.just(rank), scalar)),
            "cones": cones,
        }
        if draw(st.booleans()):
            close = st.booleans() if good else scalar
            doc["options"] = {"auto_close_faces": draw(close)}
        if not good and draw(st.booleans()):
            doc[draw(st.sampled_from(["conez", "cones", "options"]))] = draw(anything)
        return doc

    flags = ["affine", "integral", "regular", "noetherian", "empty", "separated"]
    base_values = st.one_of(
        st.sampled_from(["yes", "no", "unknown", "empty", "inf"]),
        st.lists(st.one_of(small, st.just("inf")), min_size=2, max_size=2),
        anything,
    )
    base_documents = st.one_of(
        st.dictionaries(st.sampled_from(flags + ["dim", "bogus"]), base_values,
                        max_size=4),
        anything,
    )
    commands = st.sampled_from(["validate", "hilbert", "dual", "faces",
                                "regularity", "complete", "atlas", "fullify",
                                "report"])
    fan_path, base_path = tmp_path / "fan.json", tmp_path / "base.json"

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(
        st.one_of(fan_documents(), st.text(max_size=8)),
        base_documents,
        commands,
        st.integers(-2, 6),
        st.integers(-1, 8),
        st.booleans(),
        st.booleans(),
    )
    def run(fan_doc, base_doc, command, cone, bound, no_close, with_base):
        fan_path.write_text(fan_doc if isinstance(fan_doc, str)
                            else json.dumps(fan_doc))
        base_path.write_text(json.dumps(base_doc))
        argv = [command, "--fan", str(fan_path)]
        if command in ("hilbert", "dual", "faces"):
            argv += ["--cone", str(cone)]
        if command == "atlas":
            argv += ["--search-bound", str(bound)]
        if command == "report" and with_base:
            argv += ["--base", str(base_path)]
        if no_close:
            argv.append("--no-auto-close")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = entry(argv)
        assert code in (0, 1, 2), argv

    run()


def test_json_writer_matches_json_dumps():
    # the writer behind every subcommand's stdout must reproduce
    # json.dumps(..., sort_keys=True, indent=2) byte for byte
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from fanscheme.cli import _json_text

    def dumped(x):
        return json.dumps(x, sort_keys=True, indent=2)

    # quotes, escapes, control and non-ASCII characters, a lone surrogate
    awkward = st.sampled_from(list('"\\/\x00\x1f\x7f\b\n\t\u2028é\U0001f600\ud800'))
    text = st.one_of(st.text(max_size=6), st.text(alphabet=awkward, max_size=6))
    scalar = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-10 ** 300, 10 ** 300),
        st.sampled_from([-10 ** 4000, 10 ** 4000 - 1, 0, -1]),
        text,
    )
    tree = st.recursive(
        scalar,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(text, inner, max_size=4),
        ),
        max_leaves=20,
    )

    @hypothesis.settings(max_examples=400, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(tree)
    def run(x):
        assert _json_text(x) == dumped(x)

    run()
    for x in ([], {}, (), [[], {}], {"": {"a": ()}}, [True, False, None, 1]):
        assert _json_text(x) == dumped(x)
    # no fallback to json: other types, subclasses of the handled ones too
    for bad in (1.5, {1: "a"}, {"a": {3}}, b"x", [object()],
                collections.OrderedDict(a="b")):
        with pytest.raises(TypeError):
            _json_text(bad)
