import json
import time

from branchgroups.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_wp_empty_file(tmp_path, capsys):
    path = write(tmp_path, "w.txt", "")
    code, out, _ = run(capsys, "wp", path)
    assert code == 0
    assert out.splitlines()[0] == "trivial (ell=0)"


def test_wp_rooted_cycle(tmp_path, capsys):
    path = write(tmp_path, "w.txt", "B((x@1 y@1 z@1))")
    code, out, _ = run(capsys, "wp", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nontrivial (ell=1, depth=2)"
    assert lines[1].startswith("witness ")


def test_wp_seed_letter_json(tmp_path, capsys):
    path = write(tmp_path, "w.txt", "H(t|())")
    code, out, _ = run(capsys, "--format", "json", "wp", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["trivial"] is False
    assert payload["witness"]


def test_wp_parse_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "w.txt", "B((x@1 y@1))")
    code, out, err = run(capsys, "wp", path)
    assert code == 2
    assert "parse error" in err


def test_wp_depth_cap_exit_3(tmp_path, capsys):
    path = write(tmp_path, "w.txt", "H(t|()) H(a|()) H(t|()) H(a|())")
    code, out, err = run(capsys, "--depth-cap", "4", "wp", path)
    assert code == 3
    assert "cap exceeded" in err


def test_wp_depth_cap_fires_before_normalizing(tmp_path, capsys):
    # sixteen group letters in one seed letter: the cap must fire on the
    # raw token count, before any work on the word
    path = write(tmp_path, "w.txt", "H(t t t t t t t t t t t t t t t t|())")
    start = time.perf_counter()
    code, out, err = run(capsys, "wp", path)
    assert code == 3
    assert "decision depth 32 exceeds the depth cap 12" in err
    assert time.perf_counter() - start < 5


def test_portrait_deterministic_bytes(tmp_path, capsys):
    path = write(tmp_path, "w.txt", "H(|(x y z))")
    code1, out1, _ = run(capsys, "portrait", path, "--depth", "2")
    code2, out2, _ = run(capsys, "portrait", path, "--depth", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "portrait depth=2"
    assert "z@1 (x@2 y@2 z@2)" in out1


def test_portrait_identity_all_blank(tmp_path, capsys):
    path = write(tmp_path, "w.txt", "")
    code, out, _ = run(capsys, "portrait", path, "--depth", "1")
    assert code == 0
    assert out.splitlines()[1] == "- ()"


def test_portrait_dot(tmp_path, capsys):
    path = write(tmp_path, "w.txt", "H(|(x y z))")
    code, out, _ = run(capsys, "--format", "dot", "portrait", path, "--depth", "2")
    assert code == 0
    assert out.startswith("digraph portrait {")


def test_conj_same_element(capsys):
    code, out, _ = run(capsys, "conj", "t|()", "t|()")
    assert code == 0
    assert "certificate conjugate" in out


def test_conj_t_tinv(capsys):
    code, out, _ = run(capsys, "--format", "json", "conj", "t|()", "t'|()")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "conjugate"
    assert payload["verified"] is True
    assert "H(a|())" in payload["conjugator"]


def test_conj_t_t2(capsys):
    code, out, _ = run(capsys, "--format", "json", "conj", "t|()", "t t|()")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] in ("not_conjugate", "unknown")


def test_chain_integers(capsys):
    code, out, _ = run(capsys, "--group", "integers", "chain", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order 2"
    assert lines[1] == "t -> (0 1)"
    assert lines[-1].startswith("kernel check radius 1: pass")


def test_chain_kernel_pass_small_levels(capsys):
    for n in (1, 2, 3):
        code, out, _ = run(capsys, "chain", str(n))
        assert code == 0
        assert "pass" in out.splitlines()[-1]


def test_verify_suite_json(capsys):
    code, out, _ = run(capsys, "--seed", "3", "verify", "alphabet")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["ok"] is True
    assert payload["suite"] == "alphabet"
    assert payload["seed"] == 3


def test_verify_unknown_suite_usage_error(capsys):
    code, out, err = run(capsys, "verify", "nonsense")
    assert code == 2


def test_verify_deterministic_for_fixed_seed(capsys):
    code1, out1, _ = run(capsys, "--seed", "11", "verify", "branch-identities")
    code2, out2, _ = run(capsys, "--seed", "11", "verify", "branch-identities")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_failure_exit_1(capsys, monkeypatch):
    from branchgroups import suites

    monkeypatch.setitem(
        suites.SUITES,
        "alphabet",
        lambda oracle, seed: {"suite": "alphabet", "ok": False, "failed": 1, "failures": [{}]},
    )
    code, out, _ = run(capsys, "verify", "alphabet")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BRANCHGROUPS_GROUP", "integers")
    code, out, _ = run(capsys, "chain", "1")
    assert code == 0
    assert out.splitlines()[0] == "order 2"
    # flag wins over env
    code, out, _ = run(capsys, "--group", "dihedral_infinite", "chain", "1")
    assert code == 0
    assert out.splitlines()[0] == "order 4"


def test_group_descriptor_file(tmp_path, capsys):
    desc = write(tmp_path, "g.grp", "group zz\nfamily integers\n")
    code, out, _ = run(capsys, "--group", f"file:{desc}", "chain", "1")
    assert code == 0
    assert out.splitlines()[0] == "order 2"


def test_missing_file_exit_2(capsys):
    code, out, err = run(capsys, "wp", "/nonexistent/file.txt")
    assert code == 2
