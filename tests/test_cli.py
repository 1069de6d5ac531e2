"""End-to-end CLI behavior: golden outputs, exit codes, error channel."""

import json
import time
from pathlib import Path

import pytest

from nbhdmc import cli
from nbhdmc.cli import main
from nbhdmc.fixtures import ROWS, run_row, run_suite
from nbhdmc.formula import MAX_NESTING

MODELS = Path(__file__).resolve().parent.parent / "models"
MOORE = str(MODELS / "moore.json")
W_BASE = str(MODELS / "w_separation_base.json")
W_EXT = str(MODELS / "w_separation_extended.json")
W_GAMMA = str(MODELS / "w_separation_gamma.json")
B_BASE = str(MODELS / "bullet_separation_base.json")
B_EXT = str(MODELS / "bullet_separation_extended.json")
TC_BASE = str(MODELS / "tc_base.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- check / extension ---------------------------------------------------------

def test_check_true(capsys):
    code, out, err = run(capsys, "check", "-m", MOORE, "-s", "s",
                         "-f", "U p")
    assert (code, out, err) == (0, "true\n", "")


def test_check_false_exits_one(capsys):
    code, out, _ = run(capsys, "check", "-m", MOORE, "-s", "s",
                       "-f", "U p -> ! U (U p -> p)")
    assert (code, out) == (1, "false\n")


def test_check_unknown_state(capsys):
    code, _, err = run(capsys, "check", "-m", MOORE, "-s", "x", "-f", "p")
    assert code == 2
    assert err.startswith("error: invalid-argument: unknown state name")


def test_extension(capsys):
    code, out, _ = run(capsys, "extension", "-m", W_EXT, "-f", "p | W p")
    assert (code, out) == (0, '["s", "t"]\n')


def test_forced_announcement_note(capsys, tmp_path):
    doc = {"states": ["s"], "neighborhoods": {"s": [[]]},
           "valuation": {"p": ["s"]}}
    path = tmp_path / "nonmono.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "-m", str(path), "-s", "s",
                         "-f", "[p] K p", "--force")
    assert code == 1
    assert out == "false\n"
    assert "note: forced announcement" in err


def test_unforced_announcement_on_nonmonotone_model(capsys, tmp_path):
    doc = {"states": ["s"], "neighborhoods": {"s": [[]]},
           "valuation": {"p": ["s"]}}
    path = tmp_path / "nonmono.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", "-m", str(path), "-s", "s",
                       "-f", "[p] K p")
    assert code == 2
    assert err.startswith("error: non-monotone:")
    assert "--force" in err


# --- valid / countermodel ----------------------------------------------------------

def test_valid_exhaustive(capsys):
    code, out, _ = run(capsys, "valid", "-f", "W p -> ! p",
                       "--max-states", "2")
    assert code == 0
    assert out == ("no-counterexample\n"
                   "no countermodel up to 2 states (valuations: exhaustive)\n")


def test_valid_sampled(capsys):
    code, out, _ = run(capsys, "valid", "-f", "W p -> ! p",
                       "--max-states", "3", "--samples", "100", "--seed", "5")
    assert code == 0
    assert out.splitlines()[1] == ("no countermodel up to 3 states "
                                   "(valuations: sampled, samples=100, seed=5)")


def test_valid_finds_countermodel(capsys):
    code, out, _ = run(capsys, "valid", "-f", "O true", "--max-states", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "countermodel"
    assert json.loads(lines[1]) == {
        "verdict": "countermodel",
        "model": {"states": ["s"], "neighborhoods": {"s": []},
                  "valuation": {}},
        "state": "s"}


def test_countermodel_json_verdict(capsys):
    code, out, _ = run(capsys, "countermodel", "-f", "U p -> ! U (U p -> p)",
                       "--class", "m")
    assert code == 1
    assert json.loads(out) == {
        "verdict": "countermodel",
        "model": {"states": ["s"], "neighborhoods": {"s": []},
                  "valuation": {"p": ["s"]}},
        "state": "s"}
    code, out, _ = run(capsys, "countermodel", "-f", "U p -> p",
                       "--max-states", "2")
    assert code == 0
    assert out == ('{"verdict": "no-counterexample", "max_states": 2, '
                   '"valuations": "exhaustive"}\n')


def test_search_rejects_announcements_off_monotone_class(capsys):
    code, _, err = run(capsys, "countermodel", "-f", "[p] U p")
    assert code == 2
    assert err.startswith("error: invalid-argument:")


def test_exhaustive_search_refuses_past_the_valuation_cap(capsys):
    """Exhaustive search refuses an n whose valuations pass frame-valid's
    cap, once no smaller n has a countermodel; sampled search draws."""
    conj = " & ".join("abcdefghijklm")  # 13 atoms: 13 at n = 1, 26 at n = 2
    taut = f"({conj}) | ! ({conj})"
    for command in ("valid", "countermodel"):
        code, out, err = run(capsys, command, "-f", taut, "--max-states", "2")
        assert (code, out) == (2, "")
        assert err == ("error: invalid-argument: 13 atoms over 2 states "
                       "exceeds the 2^24 valuation cap; use sampled search\n")
    code, out, _ = run(capsys, "countermodel", "-f", f"K ({conj})",
                       "--max-states", "2")
    assert code == 1
    assert json.loads(out)["model"]["states"] == ["s"]
    code, out, _ = run(capsys, "valid", "-f", taut, "--max-states", "2",
                       "--samples", "10")
    assert code == 0
    assert out.startswith("no-counterexample\n")


def test_bad_class_token(capsys):
    code, _, err = run(capsys, "valid", "-f", "p", "--class", "serial")
    assert code == 2
    assert err.startswith("error: invalid-argument: unknown class token")


def test_class_takes_commas_not_plus(capsys):
    code, out, _ = run(capsys, "valid", "-f", "U p -> p", "--class", "m,c,n",
                       "--max-states", "2")
    assert code == 0
    assert out.startswith("no-counterexample\n")
    code, _, err = run(capsys, "valid", "-f", "U p -> p", "--class", "m+c",
                       "--max-states", "2")
    assert code == 2
    assert err.startswith("error: invalid-argument: unknown class token")


@pytest.mark.parametrize("command", [
    ("valid", "-f", "p"), ("countermodel", "-f", "p"), ("paper-suite",)])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(capsys, command, jobs):
    code, out, err = run(capsys, *command, "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == f"error: invalid-argument: jobs must be at least 1, got {jobs}\n"


# --- reduce / desugar ----------------------------------------------------------------

def test_reduce_with_trace(capsys):
    code, out, _ = run(capsys, "reduce", "-f", "[W p] W p")
    assert code == 0
    assert out == (
        "W p -> W (W p -> p)\n"
        "1. AW @ root: [W p] W p ==> W p -> W [W p] p\n"
        "2. AP @ 1.0: W p -> W [W p] p ==> W p -> W (W p -> p)\n")


def test_reduce_announcement_free(capsys):
    code, out, _ = run(capsys, "reduce", "-f", "U p & W q")
    assert (code, out) == (0, "U p & W q\n")


def test_reduce_rejects_sugar(capsys):
    code, _, err = run(capsys, "reduce", "-f", "[p] K q")
    assert code == 2
    assert err.startswith("error: reduction-input:")


def test_reduce_size_cap(capsys, monkeypatch):
    # [W p] W p prints 5 + 8 nodes in step 1, 8 + 8 in step 2 and 8 in
    # the result: 37 in all
    monkeypatch.setattr(cli, "MAX_DESUGARED_NODES", 37)
    code, out, _ = run(capsys, "reduce", "-f", "[W p] W p")
    assert (code, out.count("\n")) == (0, 3)
    for cap, step in ((36, 2), (20, 2), (12, 1)):
        monkeypatch.setattr(cli, "MAX_DESUGARED_NODES", cap)
        code, out, err = run(capsys, "reduce", "-f", "[W p] W p")
        assert (code, out) == (2, "")
        assert err == (f"error: invalid-argument: reduction output passes "
                       f"the cap of {cap} nodes by step {step}\n")


def test_reduce_size_cap_stops_nested_announcements_early(capsys):
    # the trace grows about eightfold per nested [U p]: five print 39600
    # nodes; six take 248 steps and seven 735, refused after 123 and 96
    code, out, _ = run(capsys, "reduce", "-f", "[U p] " * 5 + "p")
    assert code == 0 and len(out) > 100_000
    for nested, step in ((6, 123), (7, 96)):
        start = time.perf_counter()
        code, out, err = run(capsys, "reduce", "-f", "[U p] " * nested + "p")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == ("error: invalid-argument: reduction output passes "
                       f"the cap of {cli.MAX_DESUGARED_NODES} nodes by step "
                       f"{step}\n")


def test_desugar(capsys):
    code, out, _ = run(capsys, "desugar", "-f", "K p")
    assert (code, out) == (0, "! (! W p & ! (! U p & p))\n")
    code, out, _ = run(capsys, "desugar", "-f", "K p", "--target", "full")
    assert (code, out) == (0, "K p\n")


def test_desugar_nesting_cap(capsys):
    code, out, _ = run(capsys, "desugar", "-f", "! " * MAX_NESTING + "p")
    assert (code, out) == (0, "! " * MAX_NESTING + "p\n")
    for text in ("(" * 400 + "p" + ")" * 400, "! " * 1200 + "p",
                 "(" * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1)):
        code, out, err = run(capsys, "desugar", "-f", text)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: parse: formula nests deeper than "
                              f"{MAX_NESTING} levels at byte ")


def test_desugar_size_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DESUGARED_NODES", 11)
    code, out, _ = run(capsys, "desugar", "-f", "K p")  # 11 nodes
    assert (code, out) == (0, "! (! W p & ! (! U p & p))\n")
    # p <-> q names p and q twice each: 11 nodes printed from 9 built
    code, out, _ = run(capsys, "desugar", "-f", "p <-> q")
    assert (code, out) == (0, "! (p & ! q) & ! (q & ! p)\n")
    for text, nodes in (("K p & q", 13), ("K K p", 41), ("p <-> ! q", 13)):
        code, out, err = run(capsys, "desugar", "-f", text)
        assert (code, out) == (2, "")
        assert err == (f"error: invalid-argument: desugared formula has "
                       f"{nodes} nodes, over the cap of 11\n")
    code, out, _ = run(capsys, "desugar", "-f", "K K p", "--target", "full")
    assert (code, out) == (0, "K K p\n")


def test_desugar_size_cap_stops_nested_k_at_once(capsys):
    code, out, _ = run(capsys, "desugar", "-f", "K " * 9 + "p")
    assert code == 0 and len(out) > 200_000  # 98411 nodes
    start = time.perf_counter()
    code, out, err = run(capsys, "desugar", "-f", "K " * 16 + "p")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == ("error: invalid-argument: desugared formula has "
                   f"{3 ** 16 * 5 - 4} nodes, over the cap of "
                   f"{cli.MAX_DESUGARED_NODES}\n")


# --- morphism ---------------------------------------------------------------------------

def test_morphism_witness(capsys):
    code, out, _ = run(capsys, "morphism", "--source", W_BASE,
                       "--target", W_EXT, "--kind", "w", "--map", "s:s,t:t")
    assert code == 1
    assert out == "false\nwitness: s {t}\n"


def test_morphism_passes(capsys):
    code, out, _ = run(capsys, "morphism", "--source", W_BASE,
                       "--target", W_EXT, "--kind", "bullet",
                       "--map", "s:s,t:t")
    assert (code, out) == (0, "true\n")


def test_morphism_atom_witness(capsys, tmp_path):
    src = tmp_path / "src.json"
    tgt = tmp_path / "tgt.json"
    src.write_text(json.dumps({"states": ["s"], "neighborhoods": {"s": []},
                               "valuation": {"p": ["s"]}}))
    tgt.write_text(json.dumps({"states": ["s"], "neighborhoods": {"s": []},
                               "valuation": {}}))
    code, out, _ = run(capsys, "morphism", "--source", str(src),
                       "--target", str(tgt), "--kind", "bullet",
                       "--map", "s:s")
    assert code == 1
    assert out == "false\nwitness: s p\n"


def test_morphism_bad_map_syntax(capsys):
    code, _, err = run(capsys, "morphism", "--source", W_BASE,
                       "--target", W_EXT, "--kind", "w", "--map", "s=s")
    assert code == 2
    assert err.startswith("error: invalid-argument: map entries")


# --- transform ---------------------------------------------------------------------------

def test_transform_perturb_reproduces_shipped_pair(capsys):
    code, out, _ = run(capsys, "transform", "-m", W_BASE,
                       "--op", f"perturb:{W_GAMMA}")
    assert code == 0
    assert out == Path(W_EXT).read_text()


def test_transform_supplementation(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"states": ["s", "t"],
                                "neighborhoods": {"s": [["s"]]},
                                "valuation": {}}))
    code, out, _ = run(capsys, "transform", "-m", str(path),
                       "--op", "supplementation")
    assert code == 0
    assert json.loads(out) == {"states": ["s", "t"],
                               "neighborhoods": {"s": [["s"], ["s", "t"]],
                                                 "t": []},
                               "valuation": {}}


def test_transform_tc(capsys):
    code, out, _ = run(capsys, "transform", "-m", TC_BASE, "--op", "tc")
    assert code == 0
    assert json.loads(out)["neighborhoods"] == {"s": [["s"], ["t"]], "t": []}


def test_transform_intersect(capsys):
    code, out, _ = run(capsys, "transform", "-m", W_BASE,
                       "--op", "intersect:p")
    assert code == 0
    assert json.loads(out) == {"states": ["t"],
                               "neighborhoods": {"t": [["t"]]},
                               "valuation": {"p": ["t"]}}


def test_transform_intersect_needs_monotone(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"states": ["s"],
                                "neighborhoods": {"s": [[]]},
                                "valuation": {"p": ["s"]}}))
    code, _, err = run(capsys, "transform", "-m", str(path),
                       "--op", "intersect:p")
    assert code == 2
    assert err.startswith("error: non-monotone:")
    assert "--force" in err
    code, out, _ = run(capsys, "transform", "-m", str(path),
                       "--op", "intersect:p", "--force")
    assert code == 0
    assert json.loads(out)["neighborhoods"] == {"s": [[]]}


def test_transform_unknown_op(capsys):
    code, _, err = run(capsys, "transform", "-m", W_BASE, "--op", "shrink")
    assert code == 2
    assert err.startswith("error: invalid-argument: unknown op")


def test_transform_perturb_rejects_illegal_map(capsys, tmp_path):
    pmap = tmp_path / "pmap.json"
    pmap.write_text(json.dumps({"kind": "bullet", "sign": "add",
                                "families": {"s": [["s"]]}}))
    code, _, err = run(capsys, "transform", "-m", W_BASE,
                       "--op", f"perturb:{pmap}")
    assert code == 2
    assert err.startswith("error: model-format:")


@pytest.mark.parametrize("doc,message", [
    ({"kind": "bullet", "sign": "add", "families": {"s": [["s"]]}},
     "bullet perturbation at state 0"),
    ({"kind": "bullet", "sign": "add", "families": {"nowhere": []}},
     "unknown state"),
    ({"kind": "bullet", "sign": "add", "families": {}, "extra": 1},
     "unknown perturbation keys"),
])
def test_transform_perturb_errors_name_the_file(capsys, tmp_path, doc,
                                                message):
    pmap = tmp_path / "pmap.json"
    pmap.write_text(json.dumps(doc))
    code, out, err = run(capsys, "transform", "-m", W_BASE,
                         "--op", f"perturb:{pmap}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: model-format: {pmap}: ")
    assert message in err


def test_transform_perturb_bad_json_is_model_format(capsys, tmp_path):
    pmap = tmp_path / "pmap.json"
    pmap.write_text("{nope")
    code, out, err = run(capsys, "transform", "-m", W_BASE,
                         "--op", f"perturb:{pmap}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: model-format: {pmap}: not valid JSON:")


# --- props / enumerate / distinguish / frame-valid ----------------------------------------

def test_props(capsys):
    code, out, _ = run(capsys, "props", "-m", MOORE)
    assert code == 0
    assert out == ('{"m": true, "c": true, "n": false, "r": false, '
                   '"filter": false, "neg-suppl": true}\n')


def test_props_on_a_dense_sixteen_state_model_is_bounded(capsys, tmp_path):
    """w0's neighborhoods are the 32768 sets that contain it: (c) and
    filter each check closure under intersection there, which must take
    time linear in the members, not in the pairs of members."""
    names = [f"w{i}" for i in range(16)]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"states": names, "neighborhoods": {"w0": [
        [names[i] for i in range(16) if x >> i & 1]
        for x in range(1, 1 << 16, 2)]}}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "props", "-m", str(path))
    assert time.perf_counter() - start < 10
    assert (code, out) == (0, '{"m": true, "c": true, "n": false, "r": false, '
                              '"filter": false, "neg-suppl": true}\n')


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-states", "3",
                       "--class", "m")
    assert (code, out) == (0, '{"1": 3, "2": 36, "3": 8000}\n')


def test_enumerate_all(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-states", "2")
    assert (code, out) == (0, '{"1": 4, "2": 256}\n')


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_enumerate_bound_below_one_rejected(capsys, bound):
    code, out, err = run(capsys, "enumerate", "--max-states", bound)
    assert (code, out) == (2, "")
    assert err == (f"error: invalid-argument: exhaustive enumeration supports "
                   f"1..3 states, got {bound}\n")


def test_enumerate_bound_above_three_rejected(capsys):
    # enumerate has no sampled mode, so its refusal points to none
    code, out, err = run(capsys, "enumerate", "--max-states", "4")
    assert (code, out) == (2, "")
    assert err == ("error: invalid-argument: exhaustive enumeration supports "
                   "1..3 states, got 4\n")


def test_distinguish(capsys):
    code, out, _ = run(capsys, "distinguish", "--m1", W_BASE, "--s1", "s",
                       "--m2", W_EXT, "--s2", "s", "--fragment", "w")
    assert (code, out) == (0, "W p\n")


@pytest.mark.parametrize("short, kind, morphism_exit", [
    ("bullet", "bullet", 0), ("w", "wrong", 1), ("full", "full", None)])
def test_fragment_short_names_resolve_to_kinds(capsys, monkeypatch, short,
                                               kind, morphism_exit):
    # --fragment and --kind take each fragment's short name: distinguish
    # is asked the kind, and --kind runs the kind's morphism check (the
    # identity from W_BASE to W_EXT is a bullet morphism, not a w-morphism)
    asked = []
    monkeypatch.setattr(cli, "distinguish",
                        lambda pm1, pm2, kind, depth: asked.append(kind))
    run(capsys, "distinguish", "--m1", W_BASE, "--s1", "s", "--m2", W_EXT,
        "--s2", "s", "--fragment", short)
    assert asked == [kind]
    if morphism_exit is not None:
        code, _, _ = run(capsys, "morphism", "--source", W_BASE, "--target",
                         W_EXT, "--kind", short, "--map", "s:s,t:t")
        assert code == morphism_exit


def test_distinguish_none(capsys):
    code, out, _ = run(capsys, "distinguish", "--m1", W_BASE, "--s1", "s",
                       "--m2", W_EXT, "--s2", "s", "--fragment", "bullet",
                       "--depth", "2")
    assert (code, out) == (1, "none up to depth 2\n")


def test_distinguish_without_atoms(capsys, tmp_path):
    # models without a valuation are told apart by formulas built from
    # true; a pair that only depth 2 separates
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path, at_t in zip(paths, ([[], ["s", "t"]], [["s"], ["s", "t"]])):
        path.write_text(json.dumps({"states": ["s", "t"], "neighborhoods":
                                    {"s": [[]], "t": at_t}}))
    args = ("distinguish", "--m1", str(paths[0]), "--s1", "s", "--m2",
            str(paths[1]), "--s2", "s", "--fragment", "w")
    assert run(capsys, *args, "--depth", "1")[:2] == \
        (1, "none up to depth 1\n")
    assert run(capsys, *args, "--depth", "2")[:2] == (0, "W ! W ! true\n")


@pytest.mark.parametrize("depth", ["-1", "-3"])
def test_distinguish_negative_depth(capsys, depth):
    code, out, err = run(capsys, "distinguish", "--m1", W_BASE, "--s1", "s",
                         "--m2", W_EXT, "--s2", "s", "--fragment", "w",
                         "--depth", depth)
    assert (code, out) == (2, "")
    assert err == f"error: invalid-argument: depth must be at least 0, " \
        f"got {depth}\n"


def test_frame_valid(capsys):
    code, out, _ = run(capsys, "frame-valid", "-m", MOORE, "-f", "U p -> p")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "frame-valid", "-m", MOORE, "-f", "O true")
    assert (code, out) == (1, "false\n")


def test_frame_valid_unforced_announcement_on_nonmonotone_model(capsys,
                                                                tmp_path):
    doc = {"states": ["s"], "neighborhoods": {"s": [[]]},
           "valuation": {"p": ["s"]}}
    path = tmp_path / "nonmono.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "frame-valid", "-m", str(path),
                         "-f", "[p] K p")
    assert (code, out) == (2, "")
    assert err == ("error: non-monotone: announcement on a model not closed "
                   "under supersets; pass force to apply the submodel "
                   "formula anyway (pass --force to override)\n")


# --- error channel --------------------------------------------------------------------------

def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "-m", "no/such/file.json",
                       "-s", "s", "-f", "p")
    assert code == 2
    assert err.startswith("error: io:")


def test_bad_model_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "check", "-m", str(path), "-s", "s", "-f", "p")
    assert code == 2
    assert err.startswith("error: model-format:")


@pytest.mark.parametrize("argv, doc", [
    (("props", "-m", "{}"), {"states": ["s"], "neighborhoods": {"s": [[["s"]]]}}),
    (("props", "-m", "{}"), {"states": ["s"], "valuation": {"p": [{"a": 1}]}}),
    (("transform", "-m", W_BASE, "--op", "perturb:{}"),
     {"kind": "bullet", "sign": "add", "families": {"s": [[["t"]]]}}),
])
def test_non_string_state_name_is_model_format(capsys, tmp_path, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(arg.replace("{}", str(path)) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: model-format:") and "unknown state name" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, doc, message", [
    (("props", "-m", "{}"), {"states": [""]},
     "state names must be nonempty strings"),
    (("props", "-m", "{}"), {"states": ["s"], "neighborhoods": {"s": ["s"]}},
     "neighborhoods of 's': expected an array of state names"),
    (("props", "-m", "{}"), {"states": ["s"], "neighborhoods": {"s": "x"}},
     "neighborhoods of 's' must be an array of arrays"),
    (("props", "-m", "{}"), {"states": ["s"], "valuation": []},
     "'valuation' must be an object"),
    (("props", "-m", "{}"), {"states": ["s"], "valuation": {"p": "s"}},
     "valuation of 'p': expected an array of state names"),
    (("transform", "-m", W_BASE, "--op", "perturb:{}"), [1],
     "perturbation JSON must be an object"),
])
def test_malformed_documents_name_the_file_and_the_fault(capsys, tmp_path,
                                                         argv, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(arg.replace("{}", str(path)) for arg in argv))
    assert (code, out, err) == (2, "", f"error: model-format: {path}: {message}\n")


@pytest.mark.parametrize("argv", [
    ("props", "-m", "{}"),
    ("transform", "-m", W_BASE, "--op", "perturb:{}"),
])
def test_deeply_nested_json_is_model_format(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000 + "]" * 3000)
    code, out, err = run(capsys, *(arg.replace("{}", str(path)) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: model-format: {path}: not valid JSON:")
    assert err.count("\n") == 1


def test_non_utf8_file_is_io(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"states": ["\u00e9"]}'.encode("latin-1"))
    code, out, err = run(capsys, "props", "-m", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: io: {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_bad_formula(capsys):
    code, _, err = run(capsys, "extension", "-m", MOORE, "-f", "p &")
    assert code == 2
    assert err.startswith("error: parse:")


@pytest.mark.parametrize("kind, channel", [
    (t, channel) for kind, channel in cli._CHANNELS
    for t in (kind if isinstance(kind, tuple) else (kind,))])
def test_every_listed_exception_takes_its_channel(capsys, monkeypatch, kind,
                                                  channel):
    def raised(args):  # built without __init__, which ParseError extends
        raise kind.__new__(kind, "raised by the command")

    monkeypatch.setattr(cli, "_cmd_desugar", raised)
    code, out, err = run(capsys, "desugar", "-f", "p")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {channel}: raised by the command")


# --- paper-suite ------------------------------------------------------------------------------

def test_paper_suite_all_rows_pass(capsys):
    code, out, _ = run(capsys, "paper-suite")
    assert code == 0
    assert out == (Path(__file__).parent / "golden" /
                   "paper_suite.txt").read_text(encoding="utf-8")
    lines = out.splitlines()
    assert lines[-1] == "30/30 rows pass"
    rows = [line.split()[0] for line in lines[:-1]]
    for expected in ("3.2", "3.5", "4.7", "5.26", "6.4", "6.6"):
        assert expected in rows
    assert all("  PASS  " in line for line in lines[:-1])


def test_run_row_matches_the_suite():
    # perfbench times each row through run_row
    suite = run_suite()
    assert [row_id for row_id, *_ in suite] == list(ROWS)
    for row_id, _, ok, detail in suite:
        assert run_row(row_id) == (ok, detail), row_id
    with pytest.raises(ValueError, match="unknown suite row: '9.9'"):
        run_row("9.9")
