"""Command line surface: every subcommand plus round trips and exit codes."""
import json
import os
import resource
import subprocess
import sys

import pytest

from conftest import record_skeleton, skeleton_cache
from ptableaux import Word
from ptableaux.cli import main

INTRO_T = ". 1 . 3 4\n1 2 2 . .\n3 3 4 4 ."
WORKED = "1 1 2 2 3 4\n2 3 3 4 . .\n3 4 5 . . ."


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    def test_word_to_ptab(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--from", "word", "--to", "ptab",
            "--rank", "3", "2122331331",
        )
        assert code == 0
        assert out.strip() == INTRO_T

    def test_explicit_parse(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--to", "ptab", "--rank", "3",
            "--parse", "21|22|331|331", "2122331331",
        )
        assert code == 0 and out.strip() == INTRO_T

    def test_parse_of_other_letters_is_exit_1(self, capsys):
        for argv in (
            ("convert", "--to", "ptab", "--parse", "21|22", "3333"),
            ("convert", "--to", "ptab", "--parse", "21|22", "2,1,2"),
            ("convert", "--to", "ptab", "--parse", "21|22", "22|21"),
            ("apply", "--ops", "e1", "--in", "3333", "--parse", "21|22"),
            ("hw", "--in", "3333", "--parse", "21|22"),
            ("crystal", "--seed", "3333", "--parse", "21|22"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and err.startswith("error: ")
        # the same letters, written as a word, a parsed word or with commas
        for value in ("2122", "21|22", "2,1,2,2"):
            code, out, _ = run(
                capsys, "convert", "--to", "parsed", "--parse", "2|1|22", value
            )
            assert code == 0 and out == "2|1|22\n"

    def test_ptab_to_word_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--from", "ptab", "--to", "parsed", INTRO_T
        )
        assert code == 0 and out.strip() == "21|22|331|331"

    def test_biword_and_matrix(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--to", "biword", "--rank", "3", "2122331331"
        )
        assert code == 0
        assert out.strip() == "1 1 2 2 3 3 3 4 4 4\n2 1 2 2 3 3 1 3 3 1"
        code, out, _ = run(capsys, "convert", "--from", "biword", "--to", "matrix", out.strip())
        assert code == 0
        assert out.strip() == "1 1 0\n0 2 0\n1 0 2\n1 0 2"

    def test_matrix_to_ptab(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--from", "matrix", "--to", "ptab",
            "1 1 0\n0 2 0\n1 0 2\n1 0 2",
        )
        assert code == 0 and out.strip() == INTRO_T

    def test_dual_and_rsk(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--to", "dual", "--rank", "3", "2122331331"
        )
        assert code == 0
        assert out.strip() == ". . 1 . 2\n. . 2 2 .\n. 1 . 3 3\n1 3 3 . ."
        code, out, _ = run(
            capsys, "convert", "--to", "rsk", "--rank", "3", "2122331331"
        )
        assert code == 0
        p_text, q_text = out.strip().split("\n\n")
        assert p_text == "1 1 1 2 2\n2 3 3 3 .\n3 . . . ."
        assert q_text == "1 1 2 3 4\n2 3 4 4 .\n3 . . . .\n. . . . ."

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--to", "ptab", "--rank", "3",
            "--format", "json", "2122331331",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["rows"] == 3 and obj["cols"] == 5

    def test_round_trips_through_every_model(self, capsys):
        word = "2122331331"
        for model in ("ptab", "biword", "matrix"):
            code, out, _ = run(
                capsys, "convert", "--to", model, "--rank", "3", word
            )
            assert code == 0
            code, back, _ = run(
                capsys, "convert", "--from", model, "--to", "word", out.strip()
            )
            assert code == 0 and back.strip() == word

    def test_empty_biword_round_trip(self, capsys):
        code, out, _ = run(capsys, "convert", "--to", "biword", "")
        assert (code, out) == (0, "\n\n")
        code, back, err = run(capsys, "convert", "--from", "biword", "--to", "word", out)
        assert (code, back, err) == (0, "\n", "")

    def test_invalid_input_is_exit_1(self, capsys):
        code, _, err = run(
            capsys, "convert", "--from", "ptab", "--to", "word", "1 1\n1 ."
        )
        assert code == 1 and "error" in err

    def test_ptab_json_without_grid_list_is_exit_1(self, capsys):
        for bad in ('{}', '{"grid": 5}', '{"grid": [5]}', '[1, 2]'):
            code, out, err = run(
                capsys, "convert", "--from", "ptab", "--to", "word", bad
            )
            assert code == 1 and out == ""
            assert err.startswith("error: ")

    def test_parse_of_a_non_word_input_is_exit_1(self, capsys):
        for argv in (
            ("--from", "ptab", INTRO_T),
            (INTRO_T,),  # sniffed as a ptableau
            ("--from", "biword", "1 1\n1 2"),
            ("--from", "matrix", "1 0\n0 1"),
        ):
            code, out, err = run(
                capsys, "convert", "--to", "word", "--parse", "21|22", *argv
            )
            assert code == 1 and out == "" and err.startswith("error: --parse ")

    @pytest.mark.parametrize(
        "command",
        [("apply", "--ops", "e1", "--in"), ("hw", "--in"), ("crystal", "--seed")],
        ids=["apply", "hw", "crystal"],
    )
    def test_parse_of_a_ptab_seed_is_exit_1(self, capsys, command):
        # apply, hw and crystal refuse --parse on a ptableau as convert does
        for typed in (("--type", "ptab"), ()):  # declared or sniffed
            code, out, err = run(
                capsys, *command, ". 1\n1 .", *typed, "--parse", "1|1"
            )
            assert (code, out) == (1, "")
            assert err == "error: --parse cuts words, not a ptab input\n"

    def test_rank_of_a_non_word_input_is_exit_1(self, capsys):
        # --rank sizes a word: refused, as --parse is, on any other model
        for argv in (
            ("--from", "ptab", "1 2"),
            (INTRO_T,),  # sniffed as a ptableau
            ("--from", "biword", "1 1\n1 2"),
            ("--from", "matrix", "1 0\n0 1"),
        ):
            code, out, err = run(capsys, "convert", "--to", "word", "--rank", "7", *argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: --rank applies to words, not a ")
        for typed in (("--type", "ptab"), ()):  # declared or sniffed
            code, out, err = run(capsys, "hw", "--in", ". 1\n1 .", *typed, "--rank", "2")
            assert (code, out) == (1, "")
            assert err == "error: --rank applies to words, not a ptab input\n"

    def test_a_word_that_does_not_parse_is_named(self, capsys):
        for argv, text in (
            (("hw", "--in", "1 2"), "1 2"),
            (("convert", "--to", "ptab", "1,x"), "1,x"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == (
                f"error: {text!r} read as a word: letters are digits,"
                " or integers separated by commas\n"
            )


class TestApply:
    def test_raising_on_ptableau(self, capsys):
        start = (
            ". . . . . . . . 4 4 5\n"
            ". . . . 1 1 2 . . . 6\n"
            ". . 1 1 2 . . 4 5 6 7\n"
            "1 1 2 3 3 3 4 6 6 . ."
        )
        code, out, _ = run(capsys, "apply", "--ops", "e2", "--in", start)
        assert code == 0
        assert out.strip() == (
            ". . . . . . . . 4 4 5\n"
            ". . . . 1 1 2 . . 6 6\n"
            ". . 1 1 2 . . 4 5 7 .\n"
            "1 1 2 3 3 3 4 6 6 . ."
        )

    def test_null_result(self, capsys):
        code, out, _ = run(
            capsys, "apply", "--ops", "e1", "--in", "11", "--rank", "2"
        )
        assert code == 0 and out.strip() == "NULL"

    def test_word_chain(self, capsys):
        code, out, _ = run(
            capsys, "apply", "--ops", "f1 f1", "--in", "11", "--rank", "2"
        )
        assert code == 0 and out.strip() == "22"

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text(INTRO_T)
        code, out, _ = run(capsys, "apply", "--ops", "e1", "--in", str(path))
        assert code == 0
        assert out.strip() == ". 1 2 3 4\n1 2 . . .\n3 3 4 4 ."


class TestGraphCommands:
    def test_hw(self, capsys):
        code, out, _ = run(
            capsys, "hw", "--in", "2122331331", "--rank", "3"
        )
        assert code == 0
        assert out.strip().endswith("ops: e1 e1 e2 e2 e2")
        assert out.splitlines()[0] == "1 1 2 3 4"

    def test_crystal_text(self, capsys):
        code, out, _ = run(
            capsys, "crystal", "--seed", "1112", "--rank", "3"
        )
        assert code == 0
        assert "nodes: 15" in out and "edges: 18" in out

    def test_crystal_dot(self, capsys):
        code, out, _ = run(
            capsys, "crystal", "--seed", "1", "--rank", "3", "--format", "dot"
        )
        assert code == 0 and out.count("->") == 2

    def test_crystal_max_nodes(self, capsys):
        code, _, err = run(
            capsys, "crystal", "--seed", "1112", "--rank", "3",
            "--max-nodes", "5",
        )
        assert code == 1 and "error" in err

    def test_crystal_max_nodes_replayed(self, capsys):
        argv = ("crystal", "--seed", "1112", "--rank", "3", "--max-nodes", "5")
        with skeleton_cache(0):
            cold = run(capsys, *argv)
        with skeleton_cache() as cache:
            assert cache[record_skeleton(Word.from_text("1112", 3))]
            warm = run(capsys, *argv)
        assert cold == warm == (1, "", "error: component exceeds 5 nodes\n")

    def test_crystal_max_nodes_counts_a_one_node_component(self, capsys):
        argv = ("crystal", "--seed", "12", "--rank", "2", "--max-nodes")
        assert run(capsys, *argv, "0") == (1, "", "error: component exceeds 0 nodes\n")
        code, out, _ = run(capsys, *argv, "1")
        assert code == 0 and "nodes: 1" in out

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "--rank", "3", "--length", "3")
        assert code == 0
        assert "components: 4" in out

    def test_decompose_cap_applies_before_enumeration(self, capsys, monkeypatch):
        import ptableaux.cli

        calls = []
        monkeypatch.setattr(
            ptableaux.cli, "words_closure", lambda *a: calls.append(a) or []
        )
        code, out, err = run(
            capsys, "decompose", "--rank", "3", "--length", "4",
            "--max-nodes", "50",
        )
        assert code == 1 and err.startswith("error: ") and out == ""
        assert calls == []

    def test_decompose_caps_word_length_at_rank_one(self, capsys, monkeypatch):
        # rank 1 has a single word of any length, so rank**length never
        # exceeds the cap; the length itself must
        import ptableaux.cli

        calls = []
        monkeypatch.setattr(
            ptableaux.cli, "words_closure", lambda *a: calls.append(a) or []
        )
        code, out, err = run(
            capsys, "decompose", "--rank", "1", "--length", "2000",
            "--max-nodes", "1000",
        )
        assert code == 1 and err.startswith("error: ") and out == ""
        assert calls == []

    def test_decompose_negative_length_is_exit_1(self, capsys):
        # 0**length has no value for a negative length: refused, not raised
        code, out, err = run(capsys, "decompose", "--rank", "0", "--length", "-1")
        assert code == 1 and err.startswith("error: ") and out == ""

    def test_lr_negative_part_is_exit_1(self, capsys):
        code, out, err = run(
            capsys, "lr", "--mu", "2,-1", "--nu", "1", "--lambda", "3", "--rank", "2"
        )
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_lr_lambda_not_a_partition_is_exit_1(self, capsys):
        for lam in ("3,-1", "1,3"):
            code, out, err = run(
                capsys, "lr", "--mu", "2,1", "--nu", "1", "--lambda", lam, "--rank", "3"
            )
            parts = lam.replace(",", ", ")
            assert (code, out, err) == (1, "", f"error: ({parts}) is not a partition\n")

    def test_lr_verify_of_a_lambda_longer_than_the_rank(self, capsys):
        # GL_2 has no irreducible of three rows: both counts are 0
        code, out, err = run(
            capsys, "lr", "--mu", "2,1", "--nu", "1", "--lambda", "2,1,1",
            "--rank", "2", "--verify",
        )
        assert (code, out, err) == (0, "2,1,1 0 0 ok\n", "")

    def test_lr_with_verify(self, capsys):
        code, out, _ = run(
            capsys, "lr", "--mu", "2,1", "--nu", "2,1",
            "--lambda", "3,2,1", "--rank", "3", "--verify",
        )
        assert code == 0 and out.strip() == "3,2,1 2 2 ok"


class TestEvacCommands:
    def test_evac(self, capsys):
        code, out, _ = run(capsys, "evac", "--in", WORKED)
        assert code == 0
        lines = out.strip().splitlines()
        # canonical (left-justified) form of the anti-partition-shaped result
        assert lines[:3] == [". 1 . 2 3 .", ". 2 2 3 . 4", "1 3 3 4 4 5"]
        assert lines[3] == "ops: f1 f1 f2 f2 f2 f1"

    def test_lusztig(self, capsys):
        code, out, _ = run(capsys, "lusztig", "--in", WORKED)
        assert code == 0
        assert out.strip() == "1 2 2 3 3 5\n2 3 4 4 . .\n3 4 5 . . ."

    def test_evac_rejects_non_partition(self, capsys):
        code, _, err = run(capsys, "evac", "--in", ". 1\n1 .")
        assert code == 1 and "error" in err

    def test_commute_factors(self, capsys):
        code, out, _ = run(
            capsys, "commute", "--left", "1\n.", "--right", ".\n1"
        )
        assert code == 0 and out.strip() == "1\n2"

    def test_commute_pretensored_with_split(self, capsys):
        code, out, _ = run(
            capsys, "commute", "--in", "1\n2", "--split", "1",
            "--algorithm", "push-down",
        )
        assert code == 0 and out.strip() == "1\n2"

    def test_commute_requires_split(self, capsys):
        code, _, err = run(capsys, "commute", "--in", "1\n2")
        assert code == 1 and "split" in err


class TestCheck:
    def test_valid_report(self, capsys):
        code, out, _ = run(capsys, "check", "--in", INTRO_T)
        assert code == 0
        assert "ok valid-ptableau" in out
        assert "ok weight: (3,3,4)" in out
        assert "ok partition-shaped: False" in out

    def test_invalid_report(self, capsys):
        code, out, _ = run(capsys, "check", "--in", "1\n1")
        assert code == 1
        assert "fail valid-ptableau" in out


class TestCountMatrixCap:
    """A count matrix of more than 10**6 cells is refused before it is built."""

    def test_huge_values_are_exit_1(self, capsys):
        for argv, dims in (
            (("evac", "--in", "2122331331"), "1 x 2122331331"),
            (("check", "--in", "2122331331"), "1 x 2122331331"),
            (("convert", "--from", "biword", "--to", "word", "1\n2122331331"), "1 x 2122331331"),
            # Q of a one-cell ptableau holding 2122 has 2122 rows and values
            (("convert", "--from", "ptab", "--to", "rsk", "2122"), "2122 x 2122"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == f"error: a {dims} count matrix exceeds 1000000 cells\n"

    def test_huge_ranks_are_exit_1_under_a_memory_limit(self):
        # without the cap these grow until the memory runs out, so they run
        # in a child process whose address space is capped at 1 GiB
        script = (
            "from ptableaux.cli import main; "
            "print([main(argv) for argv in ("
            "['convert', '--to', 'word', '1,3000000000'], "
            "['lr', '--mu', '1', '--nu', '1', '--lambda', '2', '--rank', '3000000000'], "
            "['lr', '--mu', '0', '--nu', '0', '--lambda', '0', '--rank', '3000000000'])])"
        )
        limit = 1 << 30
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert child.stdout == "[1, 1, 1]\n"
        assert child.stderr == (
            "error: a 3000000000 x 2 count matrix exceeds 1000000 cells\n"
            "error: a 3000000000 x 1 count matrix exceeds 1000000 cells\n"
            "error: a 3000000000 x 0 count matrix exceeds 1000000 cells\n"
        )
