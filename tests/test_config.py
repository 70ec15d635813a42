import pytest

from socialqe.config import EngineParams, load_config, parse_config


class TestEngineParams:
    def test_defaults(self):
        p = EngineParams()
        assert (p.tweet_weight, p.retweet_weight) == (0.8, 0.2)
        assert (p.vote_weight, p.link_weight) == (0.35, 0.5)
        assert p.vector_size == 20
        assert p.expansion_size == 10
        assert p.max_ngram == 4
        assert p.max_distance == 8
        assert p.threshold == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineParams(tweet_weight=-0.1)
        with pytest.raises(ValueError):
            EngineParams(vector_size=0)
        with pytest.raises(ValueError):
            EngineParams(max_ngram=9)
        with pytest.raises(ValueError):
            EngineParams(max_distance=65)
        with pytest.raises(ValueError):
            EngineParams(threshold=0)

    @pytest.mark.parametrize("field", ["tweet_weight", "retweet_weight", "vote_weight", "link_weight"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 1e308, 1e6 + 1, -0.1])
    def test_weight_multiplier_finite_and_at_most_1e6(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and in 0..1e6"):
            EngineParams(**{field: value})

    def test_weight_multipliers_of_1e6_accepted(self):
        p = EngineParams(tweet_weight=1e6, retweet_weight=1e6, vote_weight=1e6, link_weight=1e6)
        assert p.tweet_weight == 1e6

    def test_from_mapping_coerces_and_ignores_extras(self):
        p = EngineParams.from_mapping(
            {"vector_size": "12", "tweet_weight": "0.9", "lexicon": "words.txt"}
        )
        assert p.vector_size == 12
        assert p.tweet_weight == 0.9
        assert p.retweet_weight == 0.2  # untouched default

    def test_from_mapping_bad_number(self):
        with pytest.raises(ValueError, match="vector_size"):
            EngineParams.from_mapping({"vector_size": "many"})

    def test_to_entries_round_trips_exactly(self):
        p = EngineParams(vote_weight=0.1, vector_size=7)
        again = EngineParams.from_mapping(dict(p.to_entries()))
        assert again == p


class TestParseConfig:
    def test_comments_blanks_and_later_wins(self):
        text = "# settings\n\nvector_size=5\nvector_size = 9\n"
        assert parse_config(text) == {"vector_size": "9"}

    def test_bad_line_rejected_with_lineno(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("a=1\nnonsense\n")

    def test_load_resolves_wordlists_relative_to_file(self, tmp_path):
        (tmp_path / "lex.txt").write_text("alpha\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lexicon=lex.txt\nthreshold=4\n")
        entries = load_config(cfg)
        assert entries["threshold"] == "4"
        assert entries["lexicon"] == str((tmp_path / "lex.txt").resolve())
