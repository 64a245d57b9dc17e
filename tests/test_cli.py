"""Command line surface: every subcommand plus round trips and exit codes."""
import json

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
