import hashlib
import os
import subprocess
import sys

import pytest

import ologkit.instance
import ologkit.ordering
import ologkit.schema
from ologkit import bundled_schema, bundled_text, load_instance, validate_instance
from ologkit.cli import main
from ologkit.ordering import natural_key


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def body_of(out):
    """Report lines without the trailing elapsed_ms line."""
    lines = out.rstrip("\n").split("\n")
    assert lines[-1].startswith("elapsed_ms: ")
    int(lines[-1].split(": ")[1])
    return lines[:-1]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_bundled_schema_and_instance(capsys):
    code, out = run_cli(capsys, "check", "paper.olog", "protein.oinst")
    assert code == 0
    lines = body_of(out)
    assert lines[0] == "command: check"
    assert lines[1] == "input: bundled:paper.olog"
    assert lines[2] == "input: bundled:protein.oinst"
    assert (
        "schema 'chain-systems': 23 boxes, 42 arrows, 17 equations, 8 pullbacks"
        in lines
    )
    assert "instance 'protein': 285 elements" in lines
    assert sum(" AllHold (" in line for line in lines) == 17
    assert sum(" PASS (" in line for line in lines) == 8
    assert "Counterexample" not in out and "FAIL" not in out
    assert lines[-1] == "verdict: ok"


def test_check_schema_only(capsys):
    code, out = run_cli(capsys, "check", "paper.olog")
    assert code == 0
    assert "AllHold" not in out


def test_check_social_instance(capsys):
    code, out = run_cli(capsys, "check", "paper.olog", "social.oinst")
    assert code == 0
    assert "instance 'social': 285 elements" in out


def test_check_reports_instance_violations(capsys, tmp_path):
    broken = tmp_path / "broken.oinst"
    broken.write_text(
        'instance "broken" of "chain-systems" { set ZZ { z1 } }', encoding="utf-8"
    )
    code, out = run_cli(capsys, "check", "paper.olog", str(broken))
    assert code == 1
    assert "UNKNOWN_BOX" in out
    assert body_of(out)[-1] == "verdict: violation"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_lifeline_defaults(capsys):
    code, out = run_cli(capsys, "simulate", "--lifeline")
    assert code == 0
    lines = body_of(out)
    assert "failure=100 class=Ductile" in lines
    assert "elements=285" in lines


def test_simulate_bare_defaults_are_brittle(capsys):
    code, out = run_cli(capsys, "simulate")
    assert code == 0
    lines = body_of(out)
    assert "failure=20.6 class=Brittle" in lines
    assert "elements=190" in lines


def test_simulate_social_narrative(capsys):
    code, out = run_cli(capsys, "simulate", "--domain", "social")
    assert code == 0
    lines = body_of(out)
    assert "failure=0.0137673 class=Brittle" in lines
    assert "elements=20210" in lines


def test_simulate_writes_a_loadable_instance(capsys, tmp_path, schema, protein):
    out_file = tmp_path / "generated.oinst"
    code, out = run_cli(capsys, "simulate", "--lifeline", "-o", str(out_file))
    assert code == 0
    assert f"wrote {out_file}" in body_of(out)
    written = load_instance(out_file)
    assert validate_instance(schema, written) == []
    assert written == protein


def test_simulate_rejects_weak_bricks(capsys):
    code, out = run_cli(capsys, "simulate", "--glue-fail", "20.6", "--brick-fail", "30")
    assert code == 3
    assert "error[PARAM_CONSTRAINT]: box N:" in out
    assert body_of(out)[-1] == "verdict: param-constraint"


def test_simulate_rejects_bad_comparator_flags(capsys):
    code, out = run_cli(capsys, "simulate", "--eps-rel", "2.0")
    assert code == 3
    assert "error[DOMAIN]" in out


# ---------------------------------------------------------------------------
# iso / analogy
# ---------------------------------------------------------------------------


def test_iso_bundled_instances(capsys):
    code, out = run_cli(capsys, "iso", "paper.olog", "protein.oinst", "social.oinst")
    assert code == 0
    lines = body_of(out)
    assert "Found" in lines
    assert "A: a1->a1" in lines
    assert any(line.startswith("V: ") for line in lines)


def test_iso_instance_with_itself(capsys):
    code, out = run_cli(capsys, "iso", "paper.olog", "protein.oinst", "protein.oinst")
    assert code == 0
    assert "Found" in body_of(out)


def _simulate_twins(capsys, *flags):
    """Write the protein and social instances for the same chain flags."""
    names = []
    for domain in ("protein", "social"):
        name = f"twin-{domain}.oinst"
        code, _ = run_cli(capsys, "simulate", "--domain", domain, *flags, "-o", name)
        assert code == 0
        names.append(name)
    return names


def test_iso_on_bonded_twins_past_the_old_recursion_line(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    twins = _simulate_twins(
        capsys, "--bricks", "12", "--glue-fail", "20.6", "--brick-fail", "100",
        "--lifeline", "--ll-rest", "23.45", "--ll-fail", "110",
    )
    code, out = run_cli(capsys, "iso", "paper.olog", *twins)
    assert code == 0
    assert "Found" in body_of(out)


def _rewire_first_yield(path):
    """Point the first entry of arrow 35 (P -> U) at another brick."""
    lines = path.read_text().split("\n")
    row = lines.index("  fn 35 {") + 1
    assert lines[row] == "    p01 -> tc1,"
    lines[row] = "    p01 -> tc2,"
    path.write_text("\n".join(lines))


@pytest.mark.parametrize(
    "flags, rewired, digest",
    [
        ((), False, "90397ab729694a8805c290991f5a468f92d299256d3396c9adcda9f5ef3f02c4"),
        (
            ("--bricks", "16", "--glue-fail", "20.6", "--lifeline",
             "--ll-rest", "23.45", "--ll-fail", "100"),
            False, "7a1fb2a15d8f05d6673b70834ee8a740faec95bb0d90bf2ecd3671470d43e1c6",
        ),
        (
            ("--bricks", "7", "--glue-fail", "20.6", "--brick-fail", "100", "--lifeline",
             "--ll-rest", "23.45", "--ll-fail", "110"),
            False, "924b4597993de970ff55207997f9c7b78a0607f09af759db5daaa2a850f0eb34",
        ),
        (
            ("--bricks", "6", "--glue-fail", "20.6", "--lifeline",
             "--ll-rest", "23.45", "--ll-fail", "100"),
            True, "bbcbe19f41e70be0e5b637109a3e5e12a362ab5bf8fddf60211b9d697bd379ef",
        ),
    ],
    ids=["bundled", "ductile-n16", "bonded-n7", "rewired-ductile-n6"],
)
def test_iso_report_pins_the_search_order(capsys, tmp_path, monkeypatch, flags, rewired, digest):
    # The report lists the whole map, so its bytes fix which of the many
    # isomorphisms the search finds first; on a rewired pair they fix the
    # certificate and the box it names.
    monkeypatch.chdir(tmp_path)
    pair = _simulate_twins(capsys, *flags) if flags else ["protein.oinst", "social.oinst"]
    if rewired:
        _rewire_first_yield(tmp_path / pair[1])
    code, out = run_cli(capsys, "iso", "paper.olog", *pair)
    assert code == (1 if rewired else 0)
    body = "".join(line + "\n" for line in body_of(out))
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_iso_on_ordered_ids_calls_natural_key_on_box_ids_only(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    twins = _simulate_twins(
        capsys, "--bricks", "6", "--glue-fail", "20.6", "--brick-fail", "100",
        "--lifeline", "--ll-rest", "23.45", "--ll-fail", "110",
    )
    seen = []

    def counting_key(ident):
        seen.append(ident)
        return natural_key(ident)

    for module in (ologkit.ordering, ologkit.instance, ologkit.schema):
        monkeypatch.setattr(module, "natural_key", counting_key)
    code, out = run_cli(capsys, "iso", "paper.olog", *twins)
    assert code == 0
    assert "Found" in body_of(out)
    # Generated ids are in natural-key order and the map comes back in that
    # order, so the report proves the order instead of sorting; only box ids
    # are keyed, to find boxes whose ids tie.
    assert set(seen) <= {box.id for box in bundled_schema().boxes}


def test_analogy_default_bricks_match(capsys):
    code, out = run_cli(capsys, "analogy")
    assert code == 0
    lines = body_of(out)
    assert "iso: Found (285 elements matched)" in lines
    assert sum(" AllHold (" in line for line in lines) == 34  # 17 per instance
    assert sum(" PASS (" in line for line in lines) == 16


def test_analogy_mismatched_bricks_fail(capsys):
    code, out = run_cli(capsys, "analogy", "--bricks-a", "9", "--bricks-b", "12")
    assert code == 1
    assert "CARDINALITY_MISMATCH" in out


def test_analogy_with_tight_kappa_flags_the_hypothesis_gap(capsys):
    code, out = run_cli(capsys, "analogy", "--kappa", "10")
    assert code == 1
    assert "MISSING_IMAGE" in out
    assert "1/a1" in out


def test_analogy_reports_are_deterministic(capsys):
    code_a, out_a = run_cli(capsys, "analogy")
    code_b, out_b = run_cli(capsys, "analogy")
    assert code_a == code_b == 0
    assert body_of(out_a) == body_of(out_b)


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------


def test_pullback_command(capsys):
    code, out = run_cli(capsys, "pullback", "paper.olog", "protein.oinst", "9", "26")
    assert code == 0
    lines = body_of(out)
    assert "pullback along 9, 26: 1 pairs" in lines
    assert "(d1, j1)" in lines


def test_pullback_rejects_non_cospans(capsys):
    code, out = run_cli(capsys, "pullback", "paper.olog", "protein.oinst", "9", "14")
    assert code == 1
    assert "error[COSPAN_MISMATCH]" in out


def test_pullback_rejects_an_instance_of_another_schema(capsys, tmp_path):
    # check and iso already refuse such a file; pullback must too.
    stranger = tmp_path / "stranger.oinst"
    stranger.write_text(
        bundled_text("protein.oinst").replace('of "chain-systems"', 'of "other"'),
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "pullback", "paper.olog", str(stranger), "30", "27")
    assert code == 1
    assert "error[SCHEMA_MISMATCH]" in out
    assert "pairs" not in out


@pytest.mark.parametrize("command", ["iso", "pullback"])
def test_iso_and_pullback_validate_the_schema_as_check_does(capsys, tmp_path, command):
    schema = tmp_path / "dangling.olog"
    schema.write_text('schema "s" {\n  box X "an x"\n  arrow f : Q -> X\n}\n')
    instance = tmp_path / "i.oinst"
    instance.write_text('instance "i" of "s" {\n  set X { x1 }\n}\n')
    rest = [str(instance)] * 2 if command == "iso" else [str(instance), "f", "f"]
    code, out = run_cli(capsys, command, str(schema), *rest)
    assert code == 1
    assert body_of(out) == [
        f"command: {command}",
        f"input: {schema}",
        "error[DANGLING_ARROW] at f: arrow f references undeclared box 'Q'",
        "verdict: violation",
    ]


# ---------------------------------------------------------------------------
# error and quiet plumbing
# ---------------------------------------------------------------------------


def test_parse_errors_carry_positions(capsys, tmp_path):
    bad = tmp_path / "bad.olog"
    bad.write_text('schema "t" {\n  box A "an a"\n  arrow f : A ->\n}\n', encoding="utf-8")
    code, out = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "error[PARSE_ERROR]" in out
    assert f"{bad}:4:1" in out


def test_a_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.olog"
    bad.write_bytes(b'schema "t" {\r\n  box A "\xc3\xa9 \xff"\n}\n')
    code, out = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert f"error[PARSE_ERROR]: {bad}:2:12: invalid UTF-8 byte 0xff" in body_of(out)


def test_missing_file_is_a_usage_error(capsys, tmp_path):
    code, out = run_cli(capsys, "check", str(tmp_path / "nope" / "paper.olog"))
    assert code == 2
    assert "no such file" in out


def test_bundled_fallback_needs_a_bare_name(capsys, tmp_path):
    # a pathy reference must not silently reach for the bundled data
    code, out = run_cli(capsys, "check", str(tmp_path / "paper.olog"))
    assert code == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()  # swallow argparse noise


def test_quiet_prints_only_the_verdict(capsys):
    code, out = run_cli(capsys, "iso", "--quiet", "paper.olog", "protein.oinst", "social.oinst")
    assert (code, out) == (0, "ok\n")
    code, out = run_cli(capsys, "analogy", "--quiet", "--bricks-b", "12")
    assert (code, out) == (1, "violation\n")
    code, out = run_cli(capsys, "--quiet", "simulate")
    assert (code, out) == (0, "ok\n")


def test_module_is_runnable_as_a_script():
    proc = subprocess.run(
        [sys.executable, "-m", "ologkit.cli", "simulate", "--quiet"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("check", "paper.olog", "protein.oinst"), 0),
        (("analogy", "--bricks-b", "12"), 1),
        (("simulate",), 0),
    ],
)
def test_a_closed_stdout_keeps_the_reports_exit_code(argv, code):
    # Like `olog check ... | head -1` once head has exited: every write to
    # stdout fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ologkit.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")


# ---------------------------------------------------------------------------
# internal errors
# ---------------------------------------------------------------------------


def test_a_crash_is_an_internal_error_not_a_violation(capsys, monkeypatch):
    import ologkit.cli

    def crash(args, report, comparators):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(ologkit.cli._HANDLERS, "check", crash)
    code, out = run_cli(capsys, "check", "paper.olog")
    assert code == 4
    assert body_of(out) == [
        "command: check",
        "error[INTERNAL]: RecursionError: maximum recursion depth exceeded",
        "verdict: internal",
    ]


def test_exceptions_outside_exception_still_propagate(capsys, monkeypatch):
    import ologkit.cli

    class Stop(BaseException):
        pass

    def stop(args, report, comparators):
        raise Stop

    monkeypatch.setitem(ologkit.cli._HANDLERS, "check", stop)
    with pytest.raises(Stop):
        main(["check", "paper.olog"])
    assert capsys.readouterr().out == ""
