"""Maps among parsed words, biwords, matrices, ptableaux, duals, RSK pairs."""
import random
from itertools import product

import pytest

from conftest import all_words, all_words_upto
from ptableaux import (
    Biword,
    NNMatrix,
    ParsedWord,
    SSYTPair,
    Word,
    biword_from_matrix,
    biword_from_parsed,
    dual,
    longest_weakly_decreasing,
    matrix_from_biword,
    matrix_from_ptableau,
    minimal_parsing,
    parsed_from_biword,
    ptableau_from_word,
    rsk,
    shape,
    to_highest_weight,
    weight,
    word_from_ptableau,
)
from ptableaux.errors import (
    BiwordInvalid,
    NotPartitionShaped,
    PTableauError,
    ShapeError,
)

B = None


class TestPtableauFromWord:
    def test_staircase_construction(self):
        pw = ParsedWord.from_text("44433222111|444333221|4433|44")
        t = ptableau_from_word(pw)
        assert t.to_text() == (
            ". . . . . . . . 1 1 1 2\n"
            ". . . . . 1 1 1 . 2 2 .\n"
            ". . . 1 1 . 2 2 2 3 3 .\n"
            "1 1 1 2 2 2 3 3 4 4 . ."
        )

    def test_empty_word(self):
        t = ptableau_from_word(Word(3, ()))
        assert t.rows == 3 and t.cols == 0
        assert t.weight() == (0, 0, 0)

    def test_intro_word(self):
        t = ptableau_from_word(ParsedWord.from_text("21|22|331|331"))
        assert t.to_text() == ". 1 . 3 4\n1 2 2 . .\n3 3 4 4 ."

    def test_highest_weight_word(self):
        t = ptableau_from_word(ParsedWord.from_text("111|22111|2221|33211|332|33"))
        assert t.to_text() == (
            "1 1 1 2 2 2 3 4 4\n2 2 3 3 3 4 5 . .\n4 4 5 5 6 6 . . ."
        )

    def test_weight_matches_word_weight(self):
        for w in all_words_upto(3, 5):
            assert ptableau_from_word(w).weight() == weight(w)

    def test_root_string_tableau(self):
        t = ptableau_from_word(ParsedWord.from_text("322|3311|222|3"))
        assert t.to_text() == ". . . 2 2 .\n. 1 1 3 3 3\n1 2 2 4 . ."

    def test_rows_below_a_letter_or_negative_are_typed(self):
        with pytest.raises(PTableauError):
            ptableau_from_word(Word(3, (3,)), rows=2)
        with pytest.raises(PTableauError):
            ptableau_from_word(Word(3, ()), rows=-1)
        assert ptableau_from_word(Word(3, (3,)), rows=3).rows == 3
        assert ptableau_from_word(Word(3, ()), rows=0).rows == 0


class TestInverse:
    def test_intro_inverse(self):
        t = ptableau_from_word(ParsedWord.from_text("21|22|331|331"))
        assert word_from_ptableau(t).to_text() == "21|22|331|331"

    def test_zero_column_inverse(self):
        t = ptableau_from_word(ParsedWord.from_text("||"))
        assert t.cols == 0 and t.content_bound == 3
        assert word_from_ptableau(t).factors == ((), (), ())

    def test_antidiagonal(self):
        from ptableaux import validate_ptableau

        t = validate_ptableau([[B, 2], [1, B]])
        assert word_from_ptableau(t).to_text() == "2|1"

    def test_round_trips_exhaustive(self):
        from ptableaux import all_parsings

        for w in all_words_upto(3, 5):
            for pw in all_parsings(w):
                t = ptableau_from_word(pw)
                assert word_from_ptableau(t) == pw
                assert ptableau_from_word(word_from_ptableau(t)) == t


class TestBiwords:
    def test_factor_labels_with_empty_factor(self):
        pw = ParsedWord.from_text("4433|4422|333|44|4111|2222|33||444")
        bw = biword_from_parsed(pw)
        assert bw.top() == (
            1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4,
            5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 9, 9, 9,
        )
        assert parsed_from_biword(bw) == pw

    def test_single_letter(self):
        bw = biword_from_parsed(ParsedWord.from_text("3"))
        assert bw.columns == ((1, 3),)

    def test_intro_biword(self):
        bw = biword_from_parsed(ParsedWord.from_text("21|22|331|331"))
        assert bw.top() == (1, 1, 2, 2, 3, 3, 3, 4, 4, 4)
        assert bw.bottom() == (2, 1, 2, 2, 3, 3, 1, 3, 3, 1)

    def test_invalid_biword_rejected(self):
        with pytest.raises(BiwordInvalid):
            Biword(2, 3, [(2, 1), (1, 2)])
        with pytest.raises(BiwordInvalid):
            Biword(2, 3, [(1, 1), (1, 2)])

    def test_text_roundtrip(self):
        bw = biword_from_parsed(ParsedWord.from_text("21|22|331|331"))
        assert Biword.from_text(bw.to_text(), 4, 3) == bw

    def test_parse_error_is_typed(self):
        with pytest.raises(PTableauError, match="invalid literal"):
            Biword.from_text("1 x\n1 2")

    def test_whitespace_reads_as_the_empty_biword(self):
        # as NNMatrix.from_text("") reads the empty matrix
        bw = biword_from_parsed(ParsedWord.from_text(""))
        assert bw.to_text() == "\n"
        for text in ("", "\n", "  \n \n"):
            assert Biword.from_text(text) == Biword(0, 0, ())
        assert Biword.from_text(bw.to_text(), 1, 0) == bw
        with pytest.raises(BiwordInvalid, match="expected two lines"):
            Biword.from_text("1 2")


class TestMatrices:
    def test_intro_matrix(self):
        bw = biword_from_parsed(ParsedWord.from_text("21|22|331|331"))
        assert matrix_from_biword(bw).entries == (
            (1, 1, 0),
            (0, 2, 0),
            (1, 0, 2),
            (1, 0, 2),
        )

    def test_zero_matrix(self):
        m = NNMatrix([[0, 0], [0, 0]])
        assert biword_from_matrix(m).columns == ()

    def test_parse_shape_and_range_errors_are_typed(self):
        with pytest.raises(PTableauError, match="invalid literal"):
            NNMatrix.from_text("1 x")
        with pytest.raises(PTableauError, match="negative entry"):
            NNMatrix([[1, -1]])
        with pytest.raises(PTableauError, match="not rectangular"):
            NNMatrix([[1, 2], [3]])

    def test_biword_matrix_round_trip_exhaustive(self):
        # all biwords with k <= 4 columns over top rank 3, bottom rank 3
        def biwords(k):
            if k == 0:
                yield ()
                return
            for cols in product(
                [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)], repeat=k
            ):
                try:
                    Biword(3, 3, cols)
                except BiwordInvalid:
                    continue
                yield cols

        for k in range(0, 5):
            for cols in biwords(k):
                bw = Biword(3, 3, cols)
                assert biword_from_matrix(matrix_from_biword(bw)) == bw

    def test_matrix_from_ptableau_consistency(self):
        for w in all_words(3, 5):
            t = ptableau_from_word(w)
            via_biword = matrix_from_biword(
                biword_from_parsed(word_from_ptableau(t))
            )
            assert matrix_from_ptableau(t) == via_biword

    def test_zero_column_ptableau_matrix(self):
        t = ptableau_from_word(ParsedWord.from_text("|", rank=3))
        assert matrix_from_ptableau(t).entries == ((0, 0, 0), (0, 0, 0))


class TestDual:
    def test_intro_dual(self):
        t = ptableau_from_word(ParsedWord.from_text("21|22|331|331"))
        assert dual(t).to_text() == (
            ". . 1 . 2\n. . 2 2 .\n. 1 . 3 3\n1 3 3 . ."
        )

    def test_zero_column_dual(self):
        t = ptableau_from_word(ParsedWord.from_text("||"), rows=2)
        d = dual(t)
        assert d.rows == 3 and d.cols == 0 and d.content_bound == 2

    def test_involution_exhaustive(self):
        for w in all_words_upto(3, 5):
            t = ptableau_from_word(w)
            if t.content_bound == 0:
                continue
            assert dual(dual(t)) == t

    def test_matrix_transposes(self):
        for w in all_words(3, 5):
            t = ptableau_from_word(w)
            assert matrix_from_ptableau(dual(t)) == matrix_from_ptableau(t).transpose()

    def test_dual_biword(self):
        # swapping biword rows and re-sorting is the same as dualizing the
        # ptableau and reading its word
        t = ptableau_from_word(ParsedWord.from_text("21|22|331|331"))
        bw = biword_from_parsed(word_from_ptableau(dual(t)))
        assert bw.top() == (1, 1, 1, 2, 2, 2, 3, 3, 3, 3)
        assert bw.bottom() == (4, 3, 1, 2, 2, 1, 4, 4, 3, 3)


class TestRSK:
    def test_intro_pair(self):
        # Derived golden: the unique variant among row/column x weak/strict x
        # forward/reversed that keeps the recording tableau constant on
        # crystal components (its shape must match the component's highest
        # weight, (5,4,1) here).
        bw = biword_from_parsed(ParsedWord.from_text("21|22|331|331"))
        pair = rsk(bw)
        assert pair.insertion.to_text() == "1 1 1 2 2\n2 3 3 3 .\n3 . . . ."
        assert pair.recording.to_text() == (
            "1 1 2 3 4\n2 3 4 4 .\n3 . . . .\n. . . . ."
        )

    def test_single_column(self):
        pair = rsk(Biword(2, 3, [(2, 3)]))
        assert pair.insertion.to_text() == "3\n.\n."
        assert pair.recording.to_text() == "2\n."

    def test_pair_of_non_partition_shapes_is_typed(self):
        top = ptableau_from_word(ParsedWord.from_text("1|2"))  # shape (1, 1)
        skew = ptableau_from_word(ParsedWord.from_text("21"))  # ". 1" over "1 ."
        with pytest.raises(
            NotPartitionShaped, match="^both tableaux must be partition shaped$"
        ):
            SSYTPair(skew, top)
        row = ptableau_from_word(ParsedWord.from_text("11|"))  # shape (2,)
        with pytest.raises(ShapeError, match="^tableaux have different shapes$"):
            SSYTPair(top, row)

    def test_shape_matches_component_highest_weight(self):
        bw = biword_from_parsed(ParsedWord.from_text("21|22|331|331"))
        pair = rsk(bw)
        t = ptableau_from_word(ParsedWord.from_text("21|22|331|331"))
        tmax, _ = to_highest_weight(t)
        assert pair.shape == shape(tmax) == (5, 4, 1)

    def test_shapes_agree_and_content_matches(self):
        rng = random.Random(7)
        for _ in range(40):
            k = rng.randrange(0, 7)
            letters = [rng.randrange(1, 4) for _ in range(k)]
            pw = minimal_parsing(Word(3, letters))
            pair = rsk(biword_from_parsed(pw))
            assert shape(pair.insertion) == shape(pair.recording)
            from collections import Counter

            content = Counter(
                v for row in pair.insertion.grid for v in row if v is not None
            )
            assert content == Counter(letters)

    def test_recording_constant_on_components(self):
        # crystal operators never change the recording tableau
        from ptableaux import word_lowering, word_raising

        for w in all_words(3, 5):
            pw = minimal_parsing(w)
            q = rsk(biword_from_parsed(pw)).recording
            for i in (1, 2):
                for op in (word_raising, word_lowering):
                    nxt = op(pw, i)
                    if nxt is not None:
                        q2 = rsk(biword_from_parsed(nxt)).recording
                        assert q2 == q


class TestWidthLaw:
    def test_intro_value(self):
        # longest weakly decreasing subwords of 2122331331 have length 5
        # (e.g. 3,3,3,3,1), matching the canonical column count
        w = Word.from_text("2122331331")
        assert longest_weakly_decreasing(w) == 5
        assert ptableau_from_word(minimal_parsing(w)).cols == 5

    def test_strictly_increasing_word(self):
        assert longest_weakly_decreasing(Word.from_text("123")) == 1

    def test_staircase_word(self):
        pw = ParsedWord.from_text("44433222111|444333221|4433|44")
        assert longest_weakly_decreasing(pw) == 12
        assert ptableau_from_word(pw).cols == 12

    def test_dp_against_brute_force(self):
        def brute(letters):
            best = 0
            k = len(letters)
            for mask in range(1 << k):
                sub = [letters[i] for i in range(k) if mask >> i & 1]
                if all(a >= b for a, b in zip(sub, sub[1:])):
                    best = max(best, len(sub))
            return best

        for w in all_words_upto(3, 6, min_length=0):
            assert longest_weakly_decreasing(w) == brute(w.letters)

    def test_parsing_irrelevant(self):
        from ptableaux import all_parsings

        for w in all_words_upto(3, 5):
            lwd = longest_weakly_decreasing(w)
            parsings = list(all_parsings(w))
            chosen = [minimal_parsing(w)]
            if len(parsings) > 1:
                chosen.append(parsings[-1])
            for pw in chosen:
                assert ptableau_from_word(pw).cols == lwd
