"""Command-line entry points, driven in process through main(), and what
importing the command-line module loads, seen from a fresh interpreter."""

import argparse
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spheretile import cli
from spheretile import combinatorics as cb
from spheretile import realization as rz
from spheretile.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main, report_json, report_payload
from spheretile.combinatorics import FamilyOutcome, SubsumedNote, classify
from spheretile.serialization import angles_payload
from spheretile.trig import NonexistenceEvidence, vertex_label


def test_classify_pentagon(capsys):
    assert main(["classify", "--m", "5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 5
    kinds = [entry["kind"] for entry in payload["entries"]]
    families = {
        entry["family"]["name"]
        for entry in payload["entries"]
        if entry["kind"] == "family"
    }
    assert families == {"earth-map", "prism", "snub-fusion", "football"}
    assert kinds.count("nonexistence") == 3


def test_classify_hexagon_is_prism_only(capsys):
    assert main(["classify", "--m", "6"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    families = [e for e in payload["entries"] if e["kind"] == "family"]
    assert [e["family"]["name"] for e in families] == ["prism"]


def test_classify_rejects_small_m(capsys):
    assert main(["classify", "--m", "4"]) == EXIT_USAGE
    assert capsys.readouterr().err


def test_classify_writes_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["classify", "--m", "7", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["m"] == 7


@pytest.mark.parametrize("m", [5, 6, 64])
def test_classify_report_embeds_each_evidence_payload(m):
    report = classify(m)
    evidence = [e.outcome for e in report.entries if isinstance(e.outcome, NonexistenceEvidence)]
    embedded = [e["evidence"] for e in report_payload(report)["entries"] if e["kind"] == "nonexistence"]
    assert evidence and len(embedded) == len(evidence)
    for item, ev in zip(embedded, evidence):
        assert item == json.loads(ev.to_json())


def test_classify_file_parses_to_the_report_payload(tmp_path):
    out = tmp_path / "report.json"
    assert main(["classify", "--m", "5", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text()) == report_payload(classify(5))


# The dict-building report payload, evidence included, written out here apart
# from the package's own payload methods: the reference for report_json.


def _f17(x: float) -> str:
    return format(x, ".17g")


def _reference_evidence_payload(ev: NonexistenceEvidence) -> dict:
    f17 = _f17
    head = {
        "description": ev.description,
        "m": ev.m,
        "constraints": [list(c) for c in ev.constraints],
        "free_angle": ev.free_angle,
        "interval": [f17(ev.interval[0]), f17(ev.interval[1])],
    }
    if ev.proof:
        # A proof record: the argument in place of spacing and samples.
        return {**head, "sign_summary": "proof", "proof": ev.proof}
    return {
        **head,
        "spacing": f17(ev.spacing),
        "sign_summary": ev.sign_summary,
        "samples": [[f17(t), f17(r)] for t, r in zip(ev.sample_at, ev.residuals)],
        "violations": [[f17(t), tag] for t, tag in zip(ev.violation_at, ev.tags)],
        "poles": [f17(t) for t in ev.poles],
    }


def _reference_report_payload(report, c_max: int = 8) -> dict:
    entries = []
    for entry in report.entries:
        item: dict = {"seed": list(entry.seed), "seed_label": vertex_label(entry.seed)}
        out = entry.outcome
        if isinstance(out, FamilyOutcome):
            solutions = list(out.solutions)
            if out.name == "earth-map":
                solutions = [rz.earth_map_solution(c) for c in range(2, c_max + 1)]
            item["kind"] = "family"
            item["family"] = {
                "name": out.name,
                "generator": out.generator,
                "parameterized": out.parameterized,
                "variants": out.variants,
                "avc": {
                    "members": [list(v) for v in out.avc.members],
                    "realized": sorted(list(v) for v in out.avc.realized),
                    "warnings": list(out.avc.warnings),
                },
                "solutions": [angles_payload(s) for s in solutions],
                "notes": list(out.notes),
            }
        elif isinstance(out, NonexistenceEvidence):
            item["kind"] = "nonexistence"
            item["evidence"] = _reference_evidence_payload(out)
        else:
            assert isinstance(out, SubsumedNote)
            item["kind"] = "subsumed"
            item["subsumed_by"] = list(out.subsumed_by)
            item["reason"] = out.reason
        if entry.notes:
            item["notes"] = list(entry.notes)
        entries.append(item)
    return {"m": report.m, "entries": entries}


@pytest.mark.parametrize("m, c_max", [(5, 8), (5, 3), (6, 8), (7, 8), (13, 8), (64, 8)])
def test_report_json_matches_the_dict_reference_byte_for_byte(m, c_max):
    report = classify(m)
    expected = json.dumps(_reference_report_payload(report, c_max), separators=(",", ":"))
    assert report_json(report, c_max) == expected
    assert report_payload(report, c_max) == json.loads(expected)


@pytest.mark.parametrize("c_max", [3, 8])
@pytest.mark.parametrize("m", [5, 6, 64])
def test_each_entry_payload_is_its_entry_of_the_report(m, c_max):
    report = classify(m)
    assert [e.payload(c_max) for e in report.entries] == report_payload(report, c_max)["entries"]


def test_classify_stdout_is_the_report_text_and_a_newline(capsys):
    assert main(["classify", "--m", "7"]) == EXIT_OK
    assert capsys.readouterr().out == report_json(classify(7)) + "\n"


# The output bytes pinned: sha256 of ``report_json(classify(m)) + "\n"`` for
# m = 5..64 concatenated in order, of the stdout of ``spheretile matchings``,
# and of the stdout of ``spheretile generate F`` for F = snub1, snub2, snub3,
# football concatenated in order (no --realize, so no floats).
CLASSIFY_SWEEP_SHA256 = "c70419ac79e031a5454da0a63e1ee6815ed161f168057d49de9c40d58b4495c5"
MATCHINGS_SHA256 = "1f52f465b6012080d0f78f8919d6228381196acc33cef2b091917d227aefa235"
SPORADIC_GENERATE_SHA256 = "bddeb2ed72385f855bb3492ebe0e9217b24d74c096d843e6736217b50bb75f46"


def test_classify_reports_for_m_5_to_64_keep_their_digest():
    text = "".join(report_json(classify(m)) + "\n" for m in range(5, 65))
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFY_SWEEP_SHA256


def test_matchings_stdout_keeps_its_digest(capsys):
    assert main(["matchings"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == MATCHINGS_SHA256


def test_generate_snub_fusions_and_football_keep_their_digest(capsys):
    for family in ("snub1", "snub2", "snub3", "football"):
        assert main(["generate", family]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SPORADIC_GENERATE_SHA256


def test_generate_prism(capsys):
    assert main(["generate", "prism", "--m", "6"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 6
    assert len(payload["faces"]) == 8


def test_generate_requires_owned_flags(capsys):
    assert main(["generate", "prism"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["generate", "earthmap", "--c", "1"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["generate", "football", "--m", "5"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["generate", "earthmap", "--c", "3", "--r", "1.2"]) == EXIT_USAGE


def test_generate_earthmap_notes_face_count(capsys):
    assert main(["generate", "earthmap", "--c", "3"]) == EXIT_OK
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert len(payload["faces"]) == 27
    assert "8*c-2" in captured.err


def test_generate_earthmap_beyond_the_solver_is_a_usage_error(monkeypatch, capsys):
    # From c = 212014 on the closure residual of the earth-map angles
    # exceeds its tolerance; the 2.1M-face complex must not be built first.
    def no_build(c):
        raise AssertionError(f"earth_map({c}) built before solving")

    monkeypatch.setattr(cli, "earth_map", no_build)
    assert main(["generate", "earthmap", "--c", "212014", "--realize"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "c=212014" in captured.err


def test_classify_with_an_unsolvable_earth_map_block_count_is_a_usage_error(
    monkeypatch, capsys
):
    # The earth-map row of the seed table hands its outcome the solver that
    # lists members c = 2..c_max, so that is the name to replace.
    solve = cb.earth_map_solution

    def fails_from_7(c):
        if c >= 7:
            raise ValueError(f"the earth-map solver fails at c={c}")
        return solve(c)

    monkeypatch.setattr(cb, "earth_map_solution", fails_from_7)
    assert main(["classify", "--m", "5", "--c-max", "8"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--c-max 8" in captured.err and "c=7" in captured.err
    assert main(["classify", "--m", "5", "--c-max", "6"]) == EXIT_OK


def test_generate_realized_tiling_verifies(tmp_path, capsys):
    out = tmp_path / "snub.json"
    assert main(["generate", "snub1", "--realize", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "combinatorial" in captured
    assert "geometric" in captured


def test_generate_obj_and_svg(tmp_path):
    out = tmp_path / "ball.json"
    obj = tmp_path / "ball.obj"
    svg = tmp_path / "ball.svg"
    assert main(["generate", "football", "--realize", "--obj", str(obj),
                 "--svg", str(svg), "--out", str(out)]) == EXIT_OK
    assert obj.read_text().startswith("#")
    assert "<svg" in svg.read_text()
    payload = json.loads(out.read_text())
    assert "coordinates" in payload


def test_generate_obj_implies_realize(tmp_path):
    obj = tmp_path / "prism.obj"
    assert main(["generate", "prism", "--m", "5", "--obj", str(obj),
                 "--out", str(tmp_path / "prism.json")]) == EXIT_OK
    assert obj.exists()


def test_generate_r_implies_realize(capsys):
    # An out-of-range radius is rejected, not dropped, without --realize.
    assert main(["generate", "prism", "--m", "5", "--r", "99"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--r must lie in" in captured.err
    assert main(["generate", "prism", "--m", "5", "--r", "1.2"]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["coordinates"]) == 10


def test_verify_flags_bad_labels(tmp_path, capsys):
    out = tmp_path / "prism.json"
    assert main(["generate", "prism", "--m", "5", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads(out.read_text())
    for face in payload["faces"]:
        if face["kind"] == "rhombus":
            face["labels"] = ["beta", "beta", "gamma", "gamma"]
            break
    out.write_text(json.dumps(payload))
    assert main(["verify", "--in", str(out)]) == EXIT_FAIL
    assert "BadLabels" in capsys.readouterr().out


def test_verify_rejects_truncated_document(tmp_path, capsys):
    out = tmp_path / "prism.json"
    assert main(["generate", "prism", "--m", "5", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    text = out.read_text()
    out.write_text(text[: len(text) // 2])
    assert main(["verify", "--in", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert main(["verify", "--in", "/nonexistent/tiling.json"]) == EXIT_USAGE
    assert capsys.readouterr().err


def test_verify_of_a_file_that_is_not_utf8_is_a_read_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"m": 5, "vertices": 3, "faces": [], "note": "\xe9"}')
    assert main(["verify", "--in", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("field", ["m", "vertices", "coordinate"])
def test_verify_of_an_integer_past_the_parser_digit_limit_is_a_schema_error(tmp_path, capsys, field):
    big = "9" * 5000  # beyond the 4,300 digits json.loads converts by default
    values = {"m": "5", "vertices": "5", "coordinate": "0"}
    values[field] = big
    path = tmp_path / "big.json"
    path.write_text(
        f'{{"m": {values["m"]}, "vertices": {values["vertices"]}, "faces": '
        '[{"kind": "mgon", "vertices": [0, 1, 2, 3, 4], "labels": ["alpha", "alpha", '
        '"alpha", "alpha", "alpha"]}], "coordinates": '
        f'[[{values["coordinate"]}, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, 1], [0, -1, 0]]}}'
    )
    assert main(["verify", "--in", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("schema error: not valid JSON: ")


def test_verify_of_an_integer_coordinate_past_the_float_range_is_a_schema_error(tmp_path, capsys):
    out = tmp_path / "prism.json"
    assert main(["generate", "prism", "--m", "5", "--realize", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads(out.read_text())
    payload["coordinates"][2][1] = 10 ** 400
    out.write_text(json.dumps(payload))
    assert main(["verify", "--in", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "schema error: coordinate 2 must be finite\n"


def test_verify_of_deeply_nested_arrays_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["verify", "--in", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("schema error: not valid JSON: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--m", "6", "--out"],
        ["matchings", "--out"],
        ["generate", "prism", "--m", "5", "--svg"],
    ],
)
def test_unwritable_output_path_is_a_usage_error(argv, tmp_path, capsys):
    path = str(tmp_path / "missing" / "x.json")
    assert main(argv + [path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_generate_writes_nothing_before_a_usage_error(tmp_path, capsys):
    bad = str(tmp_path / "missing" / "a.out")
    ok = tmp_path / "ok.json"
    for flag in ("--svg", "--obj"):
        assert main(["generate", "prism", "--m", "5", flag, bad]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        argv = ["generate", "prism", "--m", "5", "--out", str(ok), flag, bad]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert not ok.exists(), flag


def test_emit_writes_a_multi_slice_text_byte_for_byte(tmp_path):
    text = "".join(f"<line {i} of {i % 97}/>\n" for i in range(20_000))
    assert len(text) > 3 * cli._WRITE_SLICE and len(text) % cli._WRITE_SLICE
    paths = [tmp_path / "big.svg", tmp_path / "exact.json", tmp_path / "empty.json"]
    texts = [text, text[: 2 * cli._WRITE_SLICE], ""]
    assert cli._emit(*zip(texts, map(str, paths))) == EXIT_OK
    assert [p.read_bytes() for p in paths] == [t.encode() for t in texts]


def test_emit_to_an_unwritable_path_writes_nothing(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    bad = str(tmp_path / "missing" / "x.svg")
    text = "x" * (2 * cli._WRITE_SLICE + 1)
    assert cli._emit((text, str(ok)), (text, bad)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")
    assert not ok.exists()
    assert cli._emit((text, str(tmp_path))) == EXIT_USAGE
    assert not any(tmp_path.iterdir())


def test_verify_infers_angles_from_census(tmp_path, capsys):
    out = tmp_path / "earth.json"
    assert main(["generate", "earthmap", "--c", "2", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "angles" in captured


def test_matchings(capsys):
    assert main(["matchings"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["matching_count"] == 36
    assert [cls["size"] for cls in payload["classes"]] == [6, 15, 15]
    assert [cls["trio_chain_length"] for cls in payload["classes"]] == [None, 3, 2]
    assert len(payload["variant_of_matching"]) == 36


def test_unknown_arguments_exit_with_usage():
    assert main(["classify", "--m", "5", "--frobnicate"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def _generated(tmp_path, capsys, *argv):
    out = tmp_path / "tiling.json"
    assert main(["generate", *argv, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    return out, json.loads(out.read_text())


@pytest.mark.parametrize("form", ["full", "coordinates-only"])
def test_verify_reports_a_zero_length_edge(tmp_path, capsys, form):
    out, payload = _generated(tmp_path, capsys, "prism", "--m", "5", "--realize")
    payload["coordinates"][1] = payload["coordinates"][0]
    if form == "coordinates-only":
        del payload["angles"]
    out.write_text(json.dumps(payload))
    assert main(["verify", "--in", str(out)]) == EXIT_FAIL
    assert "FAIL edge 0-1 has a zero or pi arc" in capsys.readouterr().out


@pytest.mark.parametrize("form", ["full", "angles-only"])
def test_verify_rejects_an_edge_cosine_outside_the_unit_interval(tmp_path, capsys, form):
    out, payload = _generated(tmp_path, capsys, "prism", "--m", "5", "--realize")
    payload["angles"]["cos_x"] = "1.5"
    if form == "angles-only":
        del payload["coordinates"]
    out.write_text(json.dumps(payload))
    assert main(["verify", "--in", str(out)]) == EXIT_USAGE
    assert "angles.cos_x must lie in [-1, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["full", "coordinates-only", "bare"])
def test_verify_rejects_a_wrong_declared_m(tmp_path, capsys, form):
    out, payload = _generated(tmp_path, capsys, "earthmap", "--c", "3", "--realize")
    payload["m"] = 7
    if form != "full":
        del payload["angles"]
    if form == "bare":
        del payload["coordinates"]
    out.write_text(json.dumps(payload))
    assert main(["verify", "--in", str(out)]) == EXIT_FAIL
    assert capsys.readouterr().out.startswith("FAIL [BadLabels] document declares m=7")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6", "abc"])
def test_verify_rejects_a_non_positive_or_non_finite_tol(tmp_path, capsys, tol):
    out, payload = _generated(tmp_path, capsys, "prism", "--m", "5", "--realize")
    for face in payload["faces"]:
        if face["kind"] == "rhombus":
            face["labels"] = face["labels"][1:] + face["labels"][:1]
            break
    out.write_text(json.dumps(payload))
    assert main(["verify", "--in", str(out)]) == EXIT_FAIL
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--tol", tol]) == EXIT_USAGE
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6", "abc"])
def test_classify_rejects_a_non_positive_or_non_finite_tol(capsys, tol):
    assert main(["classify", "--m", "5", "--tol", tol]) == EXIT_USAGE
    assert "--tol" in capsys.readouterr().err


def test_generate_prism_radius_without_angles_is_a_usage_error(capsys):
    # Inside the radius interval, yet too close to its top for the rhombus
    # angles to close.
    argv = ["generate", "prism", "--m", "8", "--r", "1.570796290245921", "--realize"]
    assert main(argv) == EXIT_USAGE
    assert "--r 1.570796290245921" in capsys.readouterr().err


def test_generate_large_prism_verifies(tmp_path, capsys):
    out, _ = _generated(tmp_path, capsys, "prism", "--m", "64", "--realize")
    assert main(["verify", "--in", str(out)]) == EXIT_OK
    assert "geometric: ok" in capsys.readouterr().out


def _run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports spheretile from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, env=env, capture_output=True, text=True)


# Standard-library modules the package does without, so that start-up, most of
# a one-shot command, does not import them.
_STARTUP_FREE = ("dataclasses", "logging", "fractions")


def test_importing_the_cli_loads_no_scipy():
    """A bare import of the command-line module loads neither scipy, a
    test-only dependency, nor numpy, which only the array paths import when
    first called, nor dataclasses, logging or fractions, which the package
    does not use; it does load every spheretile module, so no command
    compiles one later."""
    modules = sorted(p.stem for p in Path(cli.__file__).parent.glob("*.py") if p.stem != "__init__")
    code = (
        "import spheretile.cli, sys; "
        f"bad = sorted(k for k in sys.modules if k.split('.')[0] in {('scipy', 'numpy', *_STARTUP_FREE)!r}); "
        "assert not bad, bad; "
        "missing = [n for n in sys.argv[1:] if 'spheretile.' + n not in sys.modules]; "
        "assert not missing, missing"
    )
    proc = _run_fresh(code, *modules)
    assert proc.returncode == 0, proc.stderr


def test_classify_from_m6_and_matchings_load_no_numpy(tmp_path):
    """classify for m = 6..64 and matchings are angle and integer work, so a
    cold process runs them without importing numpy, dataclasses, logging or
    fractions; classify at m = 5 and a realized snub fusion then import numpy
    on first use, and still succeed."""
    code = (
        "import spheretile.cli as c, sys; out = sys.argv[1]; "
        "codes = [c.main(['classify', '--m', str(m), '--out', f'{out}/c{m}.json']) "
        "for m in range(6, 65)]; "
        "codes.append(c.main(['matchings', '--out', out + '/matchings.json'])); "
        "assert codes == [0] * 60, codes; "
        f"bad = sorted(k for k in sys.modules if k.split('.')[0] in {('numpy', *_STARTUP_FREE)!r}); "
        "assert not bad, bad; "
        "codes = [c.main(['classify', '--m', '5', '--out', out + '/c5.json']), "
        "c.main(['generate', 'snub2', '--realize', '--out', out + '/snub2.json'])]; "
        "assert codes == [0, 0], codes"
    )
    proc = _run_fresh(code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "snub2.json").read_text())["coordinates"]


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    argvs = [
        ["generate", "prism", "--m", "5"],
        ["classify"],
        ["--help"],
        ["generate", "--help"],
        ["verify", "--in", str(tmp_path / "missing.json")],
        ["generate", "earthmap", "--c", "2", "--realize"],
    ]

    def run_all(fresh):
        results = []
        for argv in argvs:
            if fresh:
                cli._parser.cache_clear()
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    cached = run_all(fresh=False)
    assert len(builds) == 1
    assert run_all(fresh=True) == cached
    assert [code for code, _, _ in cached] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
    assert cli.build_parser() is not cli.build_parser()


def test_each_subcommand_option_is_a_parameter_of_its_command():
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == {"classify", "generate", "verify", "matchings"}
    for name, sub in commands.items():
        dests = [a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        assert dests == list(inspect.signature(getattr(cli, f"cmd_{name}")).parameters), name


def test_main_calls_the_command_bound_on_the_module_when_it_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "cmd_matchings", lambda **kwargs: calls.append(kwargs) or 7)
    assert main(["matchings", "--out", "m.json"]) == 7
    assert calls == [{"out": "m.json"}]
