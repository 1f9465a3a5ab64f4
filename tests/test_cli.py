import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from branchgroups import resfin, treeauto
from branchgroups.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def test_wp_long_seed_run_under_a_raised_depth_cap(tmp_path, capsys):
    path = write(tmp_path, "w.txt", "H(t|()) " * 4000)
    code, out, _ = run(capsys, "--depth-cap", "100000", "wp", path)
    assert code == 0
    assert out.splitlines() == ["nontrivial (ell=4000, depth=8000)", "witness y@1 q0@2"]


def test_wp_deep_witness_path(tmp_path, capsys):
    # t^2520 survives only in the level-10 action: the witness path is
    # spelled through nine levels of the section walk
    path = write(tmp_path, "w.txt", "H(" + " t" * 2520 + "|())")
    code, out, _ = run(capsys, "--depth-cap", "5040", "wp", path)
    assert code == 0
    assert out.splitlines() == [
        "nontrivial (ell=2520, depth=5040)",
        "witness x@1 x@2 x@3 x@4 x@5 x@6 x@7 x@8 y@9 q0@10",
    ]


def test_wp_parse_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "w.txt", "B((x@1 y@1))")
    code, out, err = run(capsys, "wp", path)
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("letter", ["q03@1", "q٣@1", "q²@1"])
def test_wp_noncanonical_coset_number_exit_2(tmp_path, capsys, letter):
    """Coset numbers are canonical ASCII decimals; the messages were
    recorded when every label was a stored string."""
    path = tmp_path / "w.txt"
    path.write_text(f"B(({letter} x@1 y@1))", encoding="utf-8")
    code, out, err = run(capsys, "wp", str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error: line 1, column 1: bad rooted letter: \"unknown letter '{letter}'\"\n"


def test_wp_leading_inverse_mark_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, "w.txt", "' H(t|())")
    code, out, err = run(capsys, "wp", path)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: line 1, column 1")
    assert "Traceback" not in err


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


# sha256 of stdout, recorded before quotient reports read carried
# left-multiplication rows and before cycle notation came from a
# vectorized walk; every byte of these reports must stay put
PORTRAIT_WORDS = (
    "H(a|(x z o q p)) B((q0@1 z@1 p@1 y@1 q3@1 q@1 q1@1 q2@1 x@1))",
    "B((q0@1 q3@1 z@1 x@1)(q1@1 y@1 p@1 q2@1)) H(t t'|(x z)(y p q o))",
    "B((q1@1 p@1 q3@1 y@1 q@1 x@1 z@1)) H(t' t|(x o p)(y q z))",
)
PORTRAIT_4_DIGESTS = (
    "5d9b33d869bfa3a670e1527a202471969d692a022d6901a4d928a6abbed3a390",
    "53148179fa081e15ad8337cead49d81cc99815b5fad2494361e82a256c759e4f",
    "72e476261931af345c65ef59e17f8255b84516d683c90a854f451c59274316d6",
)
# sha256 of stdout, recorded while portraits were still sorted after a
# depth-first walk and route (b) still cycled materialized levels
PORTRAIT_3_DIGESTS = {
    "dot": (
        "e899baff3dcc1ed5c05530e62b4e5c40475274e8e76e3d836854e26205e0c589",
        "7f2b4b222fd6b228ed6f21fdb744672d65368ceb300c5d01be98766c4454b87a",
        "e2fae6cec7a6a1ef7c1d37da29f8ce1b2d3a420d5d8610b463f6dfd235bf7edc",
    ),
    "json": (
        "001618a34693b388adb5f142597a3c56d7199275efe0e9e8300a682eac4586c6",
        "881eed59743d78779fa198804c99daba3ddfa3176953e31ff3511f84c58f10dd",
        "18d82c5376d4b1a888ceec4b30016ebc07d91f6f1d12d710c4d3e52aa779a14e",
    ),
}
# (g, k, extra argv) -> digests of the text and the json stdout
CONJ_DIGESTS = {
    ("t|()", "t'|()", ()): (
        "f8059e32e7bc6957d1c22a29e0c7b06357e790a91513e55f221d7ebcc0be2dcb",
        "fd02aa4268b8d808d2a1f50887e001fbac7452bdf694f17fe01f4569360e797a",
    ),
    # refuted at level 2
    ("t|()", "t t|()", ()): (
        "cbff7b474bc4b3e86b41d1e7191c6a53cd514b9e7b30adaba7c27fe0eb870dfa",
        "a57f5176e494bf63087569584f494c00993d7511c3f8e8e89e1461951ab241c7",
    ),
    # refuted at level 3
    ("t t|()", "t t t t|()", ()): (
        "05eefcb787d5bd11a1a704d1127227afe8675647e89d8579f4a2444a0c629ed1",
        "62d0a34093c4f3eaac1b5457df2a91d0f5e661f64945d60cc4c3697c24ef1c37",
    ),
    ("a|()", "a t|()", ()): (
        "c43bc5a006dfc632ffc183d44022818e4f6c441d31923f9bf978ab3a537152f2",
        "435372e89e367900ec496b1c38c0117053951e8dd0924963fe3548b5bf3d17f7",
    ),
    # level 5 has 69 328 125 vertices: the vertex cap ends the level loop
    ("a|()", "a t|()", ("--depth", "6")): (
        "ac43ec19b644b00b5faada5cc7072e20243c85766deea70933d3b42c25d81ae0",
        "7b0f159af25066783f9d78d08921f3a080370315cc87c0f872c33ace6f5e886d",
    ),
}
CHAIN_DIGESTS = {
    ("dihedral_infinite", 10): "7b2ae61b52dc57ec8b34c4ffd63551bba74068856f813eb4c6acf66e8c89484e",
    ("integers", 11): "790fbc5770380345b70378413c40ad53646eed34633b5a360e18eba178c31802",
}

# sha256 of stdout, recorded while the wp-oracle suite still built one
# level permutation per depth
VERIFY_WP_ORACLE_DIGESTS = {
    ("dihedral_infinite", 1): "768b66b0c4a156b1ff20624094acb4f9b8ced6372a09c4aa9cdbf58948cbe170",
    ("dihedral_infinite", 3): "d554c0087d5518348fed26e2166904d7f1e0373bc38410a0e98bc29f149700bc",
    ("integers", 1): "54135689d733252b4429d3187d9012a27164020945d692307d7be6a71b8b3ed5",
    ("integers", 3): "fe78a46c03345d758d25881b1e8d0f115010d940d26c2477beccf8e8ff8709d3",
}
# sha256 of stdout, recorded while every section lookup rebuilt the
# node's whole children map
VERIFY_SECTION_DIGESTS = {
    ("contraction", 1): "b0fa83baf5ad3835d676d2d2b71ef8910145be4f13ed02332f543a5eb0954b14",
    ("contraction", 3): "e3732f3413472cc57e0e06dccc34327f44317b5db306456d632b1210a5afffe4",
    ("sections", 1): "1cb2d3d03049d4db324f7dcfd6f376445b811e2e6c0c4b424ead5aaa5b20e5a9",
    ("sections", 3): "4a0a99a5d686663c3e13c55e845debd85622299a36d726e32d217997902160ca",
}

# sha256 of stdout, recorded before every suite took only (oracle, seed)
VERIFY_SUITE_DIGESTS = {
    ("perm", "dihedral_infinite", 1): "f6a58ffb97e2ce5727f418dcc232d9eb11a838ff8bdc598d110c4d87fff5008c",
    ("perm", "dihedral_infinite", 3): "0df9eadfe1b6e88f22e5864b87670ee64ebda467c89b3f26a8e2348ab5ecb8ec",
    ("perm", "integers", 1): "d3b5ff4ca8cc598c1a023116c6f178ee93678bf3f3b74da419ed037a50d97f7d",
    ("perm", "integers", 3): "ee9c21cc275849bde798ecac6f3b9001bdfd7cdfbf756f7e4db47482a0deac38",
    ("alphabet", "dihedral_infinite", 1): "4b0175034c9728b41b1fb2ec457b068c020270d8428a9ca2ef6978b8c83798ba",
    ("alphabet", "dihedral_infinite", 3): "f0e5b5234375688af0a7239ca050780abf77a61f3ef098e9fa2081a7b94eb7d8",
    ("alphabet", "integers", 1): "c036a65847ac0f970b056bc50814f44738ee06924aa80c241eb5895149e34508",
    ("alphabet", "integers", 3): "896a3f47a79a03f35f43f368eac778d4d08738eeb6ed96e29052848e23e912be",
    ("branch-identities", "dihedral_infinite", 1): "df04b212c90dd2110b3985949c85e1ebae3e882fd4d127d4875ba1d84bf9d01d",
    ("branch-identities", "dihedral_infinite", 3): "1d61b9774aa74f9cdc0994e908206cc4fcd5e253b279e62c94079e5697721cc3",
    ("branch-identities", "integers", 1): "4845fb271042281c7583ee211f6f9af5fb1b34929204a9cbad977e6c45b32f49",
    ("branch-identities", "integers", 3): "8a61583d1dd35f7bb796eb9051218b521bc9904c4994b479e61b4185c5bd72c1",
    ("frattini", "dihedral_infinite", 1): "2f23c243b4d665ce2278982a519e2771eaf022a14d6628f86306ccba6edaca82",
    ("frattini", "dihedral_infinite", 3): "3ffe47c4090eba9998bd5c466f8de372225be9b3b1571ad72059ad300ec5b53c",
    ("frattini", "integers", 1): "7368c8de5afe8fa96dce7fb1292dc2ac4b023e195c0f15983972c84d898de8f0",
    ("frattini", "integers", 3): "495ff55b95544de0c10d8b044d00389eede57cb4215b876dcfa4361879e957c8",
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("i", range(len(PORTRAIT_WORDS)))
def test_portrait_depth_4_bytes(tmp_path, capsys, i):
    path = write(tmp_path, "w.txt", PORTRAIT_WORDS[i] + "\n")
    code, out, _ = run(capsys, "portrait", path, "--depth", "4")
    assert code == 0
    assert _digest(out) == PORTRAIT_4_DIGESTS[i]


@pytest.mark.parametrize("fmt", sorted(PORTRAIT_3_DIGESTS))
@pytest.mark.parametrize("i", range(len(PORTRAIT_WORDS)))
def test_portrait_depth_3_bytes(tmp_path, capsys, fmt, i):
    path = write(tmp_path, "w.txt", PORTRAIT_WORDS[i] + "\n")
    code, out, _ = run(capsys, "--format", fmt, "portrait", path, "--depth", "3")
    assert code == 0
    assert _digest(out) == PORTRAIT_3_DIGESTS[fmt][i]


@pytest.mark.parametrize("g,k,extra", sorted(CONJ_DIGESTS))
def test_conj_bytes(capsys, g, k, extra):
    for fmt, want in zip(("text", "json"), CONJ_DIGESTS[g, k, extra]):
        code, out, _ = run(capsys, "--format", fmt, "conj", g, k, *extra)
        assert code == 0
        assert _digest(out) == want


@pytest.mark.parametrize("group,level", sorted(CHAIN_DIGESTS))
def test_chain_report_bytes(capsys, group, level):
    code, out, _ = run(capsys, "--group", group, "chain", str(level))
    assert code == 0
    assert _digest(out) == CHAIN_DIGESTS[group, level]


@pytest.mark.parametrize("group,seed", sorted(VERIFY_WP_ORACLE_DIGESTS))
def test_verify_wp_oracle_bytes(capsys, group, seed):
    code, out, _ = run(capsys, "--group", group, "--seed", str(seed), "verify", "wp-oracle")
    assert code == 0
    assert _digest(out) == VERIFY_WP_ORACLE_DIGESTS[group, seed]


@pytest.mark.parametrize("suite,seed", sorted(VERIFY_SECTION_DIGESTS))
def test_verify_section_suites_bytes(capsys, suite, seed):
    code, out, _ = run(capsys, "--group", "dihedral_infinite", "--seed", str(seed), "verify", suite)
    assert code == 0
    assert _digest(out) == VERIFY_SECTION_DIGESTS[suite, seed]


@pytest.mark.parametrize("suite,group,seed", sorted(VERIFY_SUITE_DIGESTS))
def test_verify_suite_bytes(capsys, suite, group, seed):
    code, out, _ = run(capsys, "--group", group, "--seed", str(seed), "verify", suite)
    assert code == 0
    assert _digest(out) == VERIFY_SUITE_DIGESTS[suite, group, seed]


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


PORTRAIT_F = "B((x@1 y@1 z@1)) H(t|())"


@pytest.mark.parametrize("argv, message", [
    (("--depth-cap", "2"), "portrait depth 3 exceeds the depth cap 2"),  # cmd_portrait's depth check
    (("--vertex-cap", "50"), "portrait would label more than 50 vertices"),  # treeauto.portrait's count
])
def test_portrait_caps_exit_3(tmp_path, capsys, argv, message):
    path = write(tmp_path, "w.txt", PORTRAIT_F)
    code, out, err = run(capsys, *argv, "portrait", path, "--depth", "3")
    assert (code, out) == (3, "")
    assert err == f"cap exceeded: {message}\n"


def test_portrait_negative_depth_usage_error(tmp_path, capsys):
    path = write(tmp_path, "w.txt", "H(|(x y z))")
    code, out, err = run(capsys, "portrait", path, "--depth", "-1")
    assert code == 2
    assert out == ""
    assert "usage error" in err
    code, out, _ = run(capsys, "portrait", path, "--depth", "0")
    assert code == 0
    assert out.splitlines() == ["portrait depth=0"]


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


def test_conj_bare_literals(capsys):
    """Seed literals without ``|`` take the bare-literal branch of
    ``_parse_seed_spec`` and mean the identity marker."""
    code, out, _ = run(capsys, "conj", "t", "t'")
    assert code == 0
    assert "conjugator H(a|())" in out.splitlines()


def test_wp_bare_double_inverse_marker_exit_2(tmp_path, capsys):
    """A standalone ``''`` is refused by ``parse_tokens`` with its position."""
    path = write(tmp_path, "w.txt", "H(t|()) ''")
    code, out, err = run(capsys, "wp", path)
    assert (code, out) == (2, "")
    assert err == "parse error: line 1, column 9: bare inverse markers must be single quotes\n"


def test_wp_reads_stdin(capsys, monkeypatch):
    """The word file ``-`` is standard input."""
    monkeypatch.setattr("sys.stdin", io.StringIO("H(t|())\n"))
    code, out, _ = run(capsys, "wp", "-")
    assert code == 0
    assert out.splitlines() == ["nontrivial (ell=1, depth=2)", "witness y@1 q0@2"]


def test_conj_depth_below_one_usage_error(capsys):
    for depth in ("0", "-3"):
        code, out, err = run(capsys, "conj", "t|()", "t|()", "--depth", depth)
        assert code == 2
        assert out == ""
        assert "usage error" in err
    code, out, _ = run(capsys, "conj", "t|()", "t|()", "--depth", "1")
    assert code == 0
    assert out.splitlines()[0] == "certificate conjugate (depth=1)"


@pytest.mark.parametrize("g, k", [
    ("t|(x w)", "t|()"),  # unknown marker letter
    ("t|()", "H(t|(x w))"),
    ("t|(x y)", "t|()"),  # odd marker
])
def test_conj_bad_marker_exit_2(capsys, g, k):
    code, out, err = run(capsys, "conj", g, k)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad marker cycles")
    assert "Traceback" not in err


def test_conj_search_bound_flags_removed(capsys):
    # every oracle the CLI builds decides conjugacy, so the conjugator
    # search bounds never changed an answer; the flags are gone
    for flag in ("--h-radius", "--max-h-count"):
        code, out, err = run(capsys, "conj", "t|()", "t|()", flag, "1")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err


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


def test_chain_depth_cap_fires_before_any_quotient(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "chain", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "chain level 40 exceeds the depth cap 12" in err
    code, out, err = run(capsys, "--depth-cap", "2", "chain", "3")
    assert code == 3 and out == ""
    code, out, _ = run(capsys, "--depth-cap", "3", "chain", "3")
    assert code == 0
    assert out.splitlines()[-1] == "kernel check radius 3: pass"


@contextlib.contextmanager
def budget(seconds):
    def expire(signum, frame):
        pytest.fail(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("g, k, kind", [
    ("t|()", "t'|()", "conjugate"),
    ("t|()", "t t|()", "not_conjugate"),
    ("a|()", "a t|()", "unknown"),
], ids=["witness", "refuted", "unknown"])
def test_conj_deep_depth_answers_quickly(capsys, g, k, kind):
    # --depth only bounds the cycle-type levels; the proof of a conjugator
    # does not depend on it
    with budget(5):
        code, out, err = run(capsys, "conj", g, k, "--depth", "40")
    assert code == 0
    assert out.splitlines()[0] == f"certificate {kind} (depth=40)"
    assert "Traceback" not in err


def test_chain_fold_cap_exit_3(capsys):
    # the dihedral square's level-8 image would fold over 11 289 600 codes
    with budget(5):
        code, out, err = run(capsys, "--group", "product:dihedral_infinite,dihedral_infinite", "chain", "8")
    assert code == 3 and out == ""
    assert "more than the cap 2000000" in err and "Traceback" not in err


@pytest.mark.parametrize("group, level, codes", [
    ("product:integers,integers,integers", "6", 10_584_000),
    ("product:dihedral_infinite,dihedral_infinite", "7", 11_289_600),
])
def test_product_fold_cap_fires_before_any_enumeration(capsys, monkeypatch, group, level, codes):
    # a product's folds multiply the sides' orders and enumerate nothing,
    # so the cap is checked before any pair of elements is listed
    def refuse(*args):
        raise AssertionError("pairs enumerated before the cap check")

    monkeypatch.setattr(resfin, "_shortlex_pairs", refuse)
    with budget(5):
        code, out, err = run(capsys, "--group", group, "chain", level)
    assert code == 3 and out == ""
    assert err == f"cap exceeded: level {level} quotient would fold over {codes} codes, more than the cap 2000000\n"


def test_chain_fold_cap_follows_vertex_cap(capsys):
    # dihedral level 10 folds over 110 880 codes at most
    code, out, err = run(capsys, "--vertex-cap", "100000", "chain", "10")
    assert code == 3 and out == ""
    assert "110880" in err
    code, out, _ = run(capsys, "chain", "10")
    assert code == 0
    assert out.splitlines()[0] == "order 55440"


@pytest.mark.parametrize("group, order", [
    ("finite:1000000000", 1_000_000_000),
    ("finite:1_000_000_000", 1_000_000_000),
    ("product:integers,finite:2000001", 2_000_001),
    ("product:finite:3,integers,finite:5000000", 5_000_000),
])
@pytest.mark.parametrize("command", [("chain", "1"), ("wp", "-")])
def test_finite_order_above_vertex_cap_exit_3(capsys, monkeypatch, group, order, command):
    # a cyclic quotient holds one code per element, so an order above the
    # cap is refused before it is built
    monkeypatch.setattr("sys.stdin", io.StringIO("H(t|())"))
    with budget(5):
        code, out, err = run(capsys, "--group", group, *command)
    assert code == 3 and out == ""
    assert err == f"cap exceeded: finite group order {order} exceeds the vertex cap 2000000\n"


def test_finite_order_refusal_follows_vertex_cap(capsys):
    code, out, err = run(capsys, "--vertex-cap", "5", "--group", "finite:6", "chain", "1")
    assert code == 3 and out == ""
    assert err == "cap exceeded: finite group order 6 exceeds the vertex cap 5\n"
    code, out, _ = run(capsys, "--vertex-cap", "5", "--group", "product:integers,finite:6", "chain", "1")
    assert code == 3 and out == ""
    code, out, _ = run(capsys, "--vertex-cap", "6", "--group", "finite:6", "chain", "1")
    assert code == 0
    assert out.splitlines()[0] == "order 6"


def test_vertex_cap_bounds_the_alphabets_of_wp(tmp_path, capsys):
    # the decider's level-4 alphabet folds the dihedral quotients of
    # orders 24 and 10 over 240 codes
    path = write(tmp_path, "w.txt", "H(t t t t t t t t t t t t|())")
    code, out, err = run(capsys, "--depth-cap", "24", "--vertex-cap", "100", "wp", path)
    assert code == 3 and out == ""
    assert err == "cap exceeded: level 4 quotient would fold over 240 codes, more than the cap 100\n"
    code, out, _ = run(capsys, "--depth-cap", "24", "--vertex-cap", "240", "wp", path)
    assert code == 0
    assert out.splitlines() == ["nontrivial (ell=12, depth=24)", "witness x@1 x@2 y@3 q0@4"]


def test_vertex_cap_bounds_the_levels_of_verify(capsys, monkeypatch):
    # the suite's semantic oracle materializes only the levels within the
    # cap, and agrees with the decider either way
    sizes = []

    def recording(a, depth, _real=treeauto._level_columns):
        sizes.append(treeauto.vertex_count(a.oracle, a.base_level, depth))
        return _real(a, depth)

    monkeypatch.setattr(treeauto, "_level_columns", recording)
    code, out, _ = run(capsys, "--vertex-cap", "50000", "--seed", "1", "verify", "wp-oracle")
    assert code == 0
    assert _digest(out) == VERIFY_WP_ORACLE_DIGESTS["dihedral_infinite", 1]
    assert 0 < max(sizes) <= 50_000
    sizes.clear()
    code, out, _ = run(capsys, "--seed", "1", "verify", "wp-oracle")
    assert _digest(out) == VERIFY_WP_ORACLE_DIGESTS["dihedral_infinite", 1]
    assert max(sizes) == 554_625


def test_vertex_cap_bounds_the_reference_search_on_products(capsys):
    # on trivial words the suite's reference search runs to depth 8 and
    # reaches the level-7 alphabet, whose fold is over the default cap
    with budget(5):
        code, out, err = run(capsys, "--group", "product:integers,integers", "verify", "wp-oracle")
    assert code == 3 and out == ""
    assert err == "cap exceeded: level 7 quotient would fold over 2822400 codes, more than the cap 2000000\n"


@pytest.mark.parametrize("argv, message", [
    (("--depth-cap", "-1", "wp", "EMPTY"), "--depth-cap must be at least 0, got -1"),
    (("--vertex-cap", "-3", "--group", "integers", "chain", "2"), "--vertex-cap must be at least 1, got -3"),
    (("--vertex-cap", "0", "wp", "EMPTY"), "--vertex-cap must be at least 1, got 0"),
])
def test_out_of_range_caps_are_usage_errors(tmp_path, capsys, monkeypatch, argv, message):
    # refused before any oracle or quotient is built
    def refuse(*args):
        raise AssertionError("an oracle was built")

    monkeypatch.setattr("branchgroups.cli.oracle_from_selector", refuse)
    path = write(tmp_path, "w.txt", "")
    code, out, err = run(capsys, *(path if a == "EMPTY" else a for a in argv))
    assert code == 2 and out == ""
    assert err == f"usage error: {message}\n"


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


def test_shared_flags_have_one_source(tmp_path, capsys, monkeypatch):
    # a shared flag is accepted only before the command
    path = write(tmp_path, "w.txt", "")
    code, out, err = run(capsys, "wp", path, "--group", "integers")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --group integers" in err
    # the environment sets nothing: the default group stays in force
    monkeypatch.setenv("BRANCHGROUPS_GROUP", "integers")
    code, out, _ = run(capsys, "chain", "1")
    assert code == 0
    assert out.splitlines()[0] == "order 4"


def test_benchmark_argvs_parse(tmp_path, monkeypatch):
    # the benchmark drives the CLI with argument vectors of its own; a
    # parser change that rejects one would otherwise only surface when the
    # benchmark runs
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    parser = build_parser()
    cli_cold = workloads.CliCold(0, str(tmp_path / "cli-cold"))
    cli_cold.setup()
    ops = cli_cold.catalog_ops()
    commands = {parser.parse_args(cli_cold.argv(op)).command for op in ops}
    assert commands == {"wp", "portrait", "conj", "chain"}
    # a verify round builds its argument vectors inside run(); parse them
    # there instead of running them
    seen = []

    def parse_only(argv):
        seen.append(parser.parse_args(argv))
        return "", 0

    monkeypatch.setattr(workloads, "call_cli", parse_only)
    verify = workloads.VerifySuites(0)
    verify.run(verify.catalog_ops()[0])
    assert seen and {args.command for args in seen} == {"verify"}


def test_file_selector_is_unknown(capsys):
    # group descriptor files are gone: a descriptor could only name a
    # bundled family, which --group takes directly
    code, out, err = run(capsys, "--group", "file:x", "chain", "1")
    assert code == 2
    assert out == ""
    assert err == "error: unknown group selector 'file:x'\n"


def test_missing_file_exit_2(capsys):
    code, out, err = run(capsys, "wp", "/nonexistent/file.txt")
    assert code == 2


def test_benchmark_chain_reports_match_golden_digests():
    # the benchmark's cli-cold workload counts a chain report whose bytes
    # moved as failed; the same reports, checked here, guard those bytes
    # on every run of the suite
    spec = importlib.util.spec_from_file_location("_perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))["ops"]
    assert len(inputs.CHAIN_OPS) == 7
    for group, level in inputs.CHAIN_OPS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--group", group, "chain", str(level)])
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]
        assert [digest, code] == golden[f"chain:{group}:{level}"], (group, level)


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    # after a first call, main() reuses its parser: 20 calls over the five
    # commands and a usage error construct no ArgumentParser at all
    path = write(tmp_path, "w.txt", "H(t|())")
    main(["--group", "integers", "chain", "1"])
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argvs = [
        ["wp", path],
        ["portrait", "--depth", "1", path],
        ["conj", "t|()", "t'|()"],
        ["--group", "integers", "chain", "2"],
        ["verify", "perm"],
        ["chain"],
    ]
    codes = [main(argvs[i % len(argvs)]) for i in range(20)]
    capsys.readouterr()
    assert built == []
    assert codes == [0, 0, 0, 0, 0, 2] * 3 + [0, 0]


def test_main_carries_no_state_between_calls():
    # one parser serves every call, but each call parses into a fresh
    # namespace and prints to the streams current at the time of the call
    def call(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    # the parser exists, built with other streams in place, before the
    # calls under test
    assert call("--group", "integers", "chain", "2")[0] == 0
    code, out, err = call("--group", "integers", "chain")
    assert (code, out) == (2, "") and "the following arguments are required: level" in err
    code, out, err = call("--help")
    assert (code, err) == (0, "") and out.startswith("usage: branchgroups")
    code, out, err = call("--format", "json", "--group", "integers", "chain", "1")
    assert (code, err) == (0, "") and json.loads(out)["command"] == "chain"
    code, out, err = call("--group", "integers", "chain", "1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    fresh = subprocess.run(
        [sys.executable, "-m", "branchgroups.cli", "--group", "integers", "chain", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (fresh.returncode, fresh.stderr) == (0, "") and fresh.stdout.startswith("order 2\n")
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
