from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrec.cot import (
    MAX_COT_TOKENS,
    TASK_INSTRUCTION,
    CotRecord,
    FixtureAdapter,
    build_instruction_instance,
    composite_score,
    filter_cots,
    generate_cot,
    load_cot_fixture,
    render_sweep_report,
    score_coherence,
    score_cot,
    score_cots,
    threshold_sweep,
    truncate_tokens,
)
from fusionrec.cot import LABEL_SENTENCES, _find_whole_word, _frame_text, _split_sentences
from fusionrec.errors import ConfigError, DataError
from fusionrec.semantic import fallback_embed, similarity_mapped, token_counts
from oracles import (
    dump_cot_fixture,
    oracle_fallback_embed,
    oracle_score_coherence,
    oracle_score_cot,
    oracle_score_semantic_dimension,
)

_CATALOG = {
    "q5": ("Spider-Man", "superhero adventure"),
    "q8": ("Captain America", "superhero origin"),
    "q10": ("Iron Man", "superhero tech"),
    "q12": ("Edge of Tomorrow", "time loop"),
    "q20": ("Oblivion", "post-apocalyptic"),
    "q27": ("District 9", "alien allegory"),
    "q30": ("Solaris", ""),
}

_CANDIDATES = [
    ("q12", "Edge of Tomorrow", 0.88),
    ("q20", "Oblivion", 0.82),
    ("q27", "District 9", 0.76),
]


def _peter_instance(candidates=None, label=1, k_prompt=10):
    return build_instruction_instance(
        "peter",
        ["q5", "q8", "q10", "q5"],
        "q12",
        "likelihood 88%",
        _CATALOG,
        k_prompt=k_prompt,
        label=label,
        candidates=candidates,
    )


def test_instruction_instance_assembles_four_parts():
    instance = _peter_instance()
    assert instance.history_lines == [
        "1. Spider-Man - superhero adventure",
        "2. Captain America - superhero origin",
        "3. Iron Man - superhero tech",
        "4. Spider-Man - superhero adventure (re-watch)",
    ]
    assert instance.target_line == "Edge of Tomorrow - time loop"
    text = instance.text()
    assert text.startswith(TASK_INSTRUCTION)
    assert "User history:\n1. Spider-Man" in text
    assert "Target item:\nEdge of Tomorrow - time loop" in text
    assert text.endswith("CF prior: likelihood 88%")
    assert instance.target_item == "q12"
    assert instance.candidates is None


def test_instruction_window_keeps_rewatch_flag_from_full_history():
    instance = _peter_instance(k_prompt=2)
    assert instance.history_lines == [
        "1. Iron Man - superhero tech",
        "2. Spider-Man - superhero adventure (re-watch)",
    ]


def test_instruction_line_without_description_is_title_only():
    instance = build_instruction_instance(
        "u", ["q30"], "q12", "likelihood 10%", _CATALOG, label=0
    )
    assert instance.history_lines == ["1. Solaris"]
    assert instance.label == 0


def test_instruction_instance_input_validation():
    with pytest.raises(ValueError, match="history must be non-empty"):
        build_instruction_instance("u", [], "q12", "p", _CATALOG)
    with pytest.raises(DataError, match="target item 'zz' has no catalog text"):
        build_instruction_instance("u", ["q5"], "zz", "p", _CATALOG)
    with pytest.raises(DataError, match="history item 'zz' has no catalog text"):
        build_instruction_instance("u", ["zz"], "q12", "p", _CATALOG)


def test_truncate_tokens_caps_at_limit():
    long_text = " ".join(f"tok{i}" for i in range(300))
    capped = truncate_tokens(long_text)
    assert len(capped.split()) == MAX_COT_TOKENS
    assert capped.split()[-1] == f"tok{MAX_COT_TOKENS - 1}"
    assert truncate_tokens("short text") == "short text"


def test_generate_cot_truncates_adapter_output():
    corpus = {("peter", "q12"): " ".join(["word"] * 300)}
    adapter = FixtureAdapter(corpus)
    cot = generate_cot(adapter, _peter_instance())
    assert len(cot.split()) == MAX_COT_TOKENS


def test_fixture_adapter_returns_corpus_text_verbatim():
    corpus = {("peter", "q12"): "A short stored trace."}
    seen = []

    class _Spy(FixtureAdapter):
        def generate(self, user, item, prompt, instance):
            seen.append((user, item))
            return super().generate(user, item, prompt, instance)

    adapter = _Spy(corpus)
    instance = _peter_instance()
    assert generate_cot(adapter, instance) == "A short stored trace."
    assert seen == [("peter", "q12")]
    with pytest.raises(DataError, match="no fixture entry for user 'peter', item 'q5'"):
        adapter.generate("peter", "q5", "prompt", instance)


def test_fixture_adapter_expands_template_when_no_corpus():
    adapter = FixtureAdapter()
    positive = generate_cot(adapter, _peter_instance(label=1))
    assert "Captain America, Iron Man, Spider-Man" in positive
    assert "likelihood 88%" in positive
    assert positive.endswith("Therefore the user will interact with the target item.")
    negative = generate_cot(adapter, _peter_instance(label=0))
    assert negative.endswith("Therefore the user will not interact with the target item.")


def test_template_names_the_catalog_titles_not_the_prompt_lines():
    # a re-watched item without a description, and a title holding " - "
    catalog = {"p": ("Plain", ""), "s": ("Mr. Smith - Vol 2", "spy caper"), "t": ("Tail", "x")}
    instance = build_instruction_instance("u", ["p", "t", "p"], "s", "likelihood 5%", catalog)
    assert instance.history_lines[-1] == "3. Plain (re-watch)"
    trace = generate_cot(FixtureAdapter(), instance)
    assert trace.startswith("The recent history covers Plain, Tail, Plain. ")
    assert "The target item Mr. Smith - Vol 2 matches" in trace
    dashed = build_instruction_instance("u", ["s"], "p", "likelihood 5%", catalog, label=0)
    assert "covers Mr. Smith - Vol 2. " in generate_cot(FixtureAdapter(), dashed)


def test_coherence_calibration_points():
    assert score_coherence("The pack sits level.") == 1.0
    # seven identical tokens: 4 of 5 sliding 3-grams are duplicates
    assert score_coherence("same same same same same same same") == 0.6
    # opposite-polarity sentences: variance 1, too short for 3-grams
    assert score_coherence("Good. Bad.") == 0.5
    assert score_coherence("") == 0.0
    assert score_coherence("   ") == 0.0


def test_coherence_stays_in_unit_interval():
    texts = [
        "Great great great. Terrible terrible terrible.",
        "bad bad bad bad bad bad bad bad bad bad",
        "A clear, engaging pick. A confusing, boring pick. A clear, engaging pick.",
    ]
    for text in texts:
        assert 0.0 <= score_coherence(text) <= 1.0


def test_relevance_of_the_prompt_itself_is_perfect():
    instance = _peter_instance()
    assert score_cot(instance, instance.text()).dims[2] == 1.0
    assert score_cot(instance, "").dims[2] == 0.0


def test_completeness_compares_against_the_three_content_parts():
    instance = _peter_instance()
    cot = "The viewer favors superhero films and the target is a time loop story."
    reference = " ".join(
        [instance.history_text(), instance.target_line, instance.prior_line]
    )
    expected = similarity_mapped(fallback_embed(cot), fallback_embed(reference))
    assert score_cot(instance, cot).dims[1] == expected


def test_consistency_rewards_cue_named_top_candidate():
    instance = _peter_instance(candidates=_CANDIDATES)
    good = (
        "The history is all superhero films. Edge of Tomorrow matches the recent pattern. "
        "Therefore the user will interact with the target item."
    )
    bad = "The history is scattered. Nothing connects these films. The user may drift elsewhere."
    assert score_cot(instance, good).dims[3] > score_cot(instance, bad).dims[3]


def test_consistency_agreement_is_half_the_score():
    naming = "The profile leans science fiction. Oblivion matches the mood tonight."
    top_is_target = _peter_instance(candidates=_CANDIDATES)
    swapped = [("q12", "Edge of Tomorrow", 0.70), ("q20", "Oblivion", 0.82), ("q27", "District 9", 0.76)]
    top_is_oblivion = _peter_instance(candidates=swapped)
    disagree = score_cot(top_is_target, naming).dims[3]
    agree = score_cot(top_is_oblivion, naming).dims[3]
    assert agree - disagree == pytest.approx(0.5, abs=1e-12)


def test_consistency_without_candidates_uses_neutral_agreement():
    instance = _peter_instance()
    cot = "Therefore the user will interact with the target item."
    semantic_half = similarity_mapped(
        fallback_embed(cot), fallback_embed("the user will interact with the target item")
    )
    expected = 0.5 * semantic_half + 0.25
    assert score_cot(instance, cot).dims[3] == pytest.approx(expected, abs=1e-12)


def test_composite_score_calibration():
    assert composite_score((1.0, 0.8, 0.7, 0.5)) == 0.75
    assert composite_score((0.42, 0.3, 0.49, 0.4)) == pytest.approx(0.4025, abs=1e-15)
    assert composite_score((1.0, 1.0, 1.0, 1.0), (0.1, 0.2, 0.3, 0.4)) == 1.0
    assert composite_score((1.0, 0.0, 0.0, 0.0), (0.1, 0.2, 0.3, 0.4)) == 0.1


def test_composite_score_validation():
    with pytest.raises(ConfigError, match="exactly four"):
        composite_score((0.5, 0.5, 0.5))
    with pytest.raises(ConfigError, match="lie in"):
        composite_score((1.2, 0.5, 0.5, 0.5))
    with pytest.raises(ConfigError, match="lie in"):
        composite_score((0.5, 0.5, 0.5, 0.5), (-0.25, 0.5, 0.5, 0.25))
    with pytest.raises(ConfigError, match="weights must sum to 1"):
        composite_score((0.5, 0.5, 0.5, 0.5), (0.25, 0.25, 0.25, 0.15))


def test_score_cot_combines_the_four_dimensions():
    instance = _peter_instance(candidates=_CANDIDATES)
    cot = generate_cot(FixtureAdapter(), instance)
    record = score_cot(instance, cot)
    assert record.cot == cot
    assert record.retained is False
    expected_dims = (
        score_coherence(cot),
        oracle_score_semantic_dimension("completeness", cot, instance),
        oracle_score_semantic_dimension("relevance", cot, instance),
        oracle_score_semantic_dimension("consistency", cot, instance),
    )
    assert record.dims == expected_dims
    assert record.score == composite_score(expected_dims)


def _record(score):
    instance = _peter_instance()
    return CotRecord(instance=instance, cot="text", dims=(score,) * 4, score=score)


def test_filter_cots_threshold_is_inclusive():
    records = [_record(0.9), _record(0.6), _record(0.3)]
    retained, coverage = filter_cots(records, threshold=0.6)
    assert [r.score for r in retained] == [0.9, 0.6]
    assert coverage == pytest.approx(2.0 / 3.0)
    assert [r.retained for r in records] == [True, True, False]
    again, coverage_again = filter_cots(records, threshold=0.6)
    assert [r.score for r in again] == [0.9, 0.6]
    assert coverage_again == coverage
    with pytest.raises(DataError, match="coverage is undefined"):
        filter_cots([])


def test_threshold_sweep_coverage_is_non_increasing():
    records = [_record(s) for s in (0.2, 0.5, 0.8)]
    rows = threshold_sweep(records, [0.0, 0.5, 0.9])
    coverages = [row["coverage"] for row in rows]
    assert coverages == [1.0, pytest.approx(2.0 / 3.0), 0.0]
    for threshold, coverage in zip((0.0, 0.5, 0.9), coverages):
        matching = sum(r.score >= threshold for r in records) / len(records)
        assert coverage == matching
    with pytest.raises(ValueError, match="sorted ascending"):
        threshold_sweep(records, [0.5, 0.2])


def test_threshold_sweep_leaves_the_retained_flags_as_filter_cots_set_them():
    records = [_record(0.9), _record(0.3)]
    filter_cots(records, threshold=0.6)
    assert [r.retained for r in records] == [True, False]
    threshold_sweep(records, [0.0, 0.95])
    assert [r.retained for r in records] == [True, False]


def test_threshold_sweep_carries_downstream_columns():
    records = [_record(s) for s in (0.2, 0.8)]
    rows = threshold_sweep(records, [0.0, 0.5], downstream_eval=lambda kept: {"kept": float(len(kept))})
    assert rows[0]["kept"] == 2.0
    assert rows[1]["kept"] == 1.0
    report = render_sweep_report(rows)
    lines = report.splitlines()
    assert len(lines) == 3
    assert "threshold" in lines[0] and "coverage" in lines[0] and "kept" in lines[0]
    assert "0.5000" in lines[2]
    assert report.endswith("\n")


def test_render_sweep_report_marks_missing_values():
    rows = [{"threshold": 0.0, "coverage": 1.0, "hr": None}]
    report = render_sweep_report(rows)
    assert "-" in report.splitlines()[1]


def test_cot_fixture_roundtrip_preserves_structure(tmp_path):
    path = tmp_path / "cots.tsv"
    entries = [
        ("u1", "q1", 1, "line one\nline two\twith tab and \\ backslash"),
        ("u2", "q2", 0, "plain text"),
    ]
    dump_cot_fixture(path, entries)
    corpus = load_cot_fixture(path)
    assert corpus[("u1", "q1")] == entries[0][3]
    assert corpus[("u2", "q2")] == "plain text"
    raw = path.read_text(encoding="utf-8")
    assert raw.count("\n") == 2  # escaping keeps one record per line


def test_cot_fixture_load_rejects_malformed_lines(tmp_path):
    path = tmp_path / "cots.tsv"
    path.write_text("u1\tq1\t1\n", encoding="utf-8")
    with pytest.raises(DataError, match="cot fixture line 1: expected 4 tab-separated fields"):
        load_cot_fixture(path)
    path.write_text("u1\tq1\t2\tsome text\n", encoding="utf-8")
    with pytest.raises(DataError, match="label must be 0 or 1"):
        load_cot_fixture(path)
    path.write_text("\nu1\tq1\t1\tok\n\n", encoding="utf-8")
    assert load_cot_fixture(path) == {("u1", "q1"): "ok"}


def _counting_tokenizer(monkeypatch):
    """Record every list of texts the scorer tokenizes."""
    import fusionrec.cot

    calls = []

    def counting(texts, groups=None):
        calls.append(list(texts))
        return token_counts(texts, groups)

    monkeypatch.setattr(fusionrec.cot, "token_counts", counting)
    return calls


def _scored_texts(instance, cot) -> set:
    """The texts a non-blank trace is scored through: the reference by its
    parts; never `instance.text()`."""
    parts = {*instance.history_lines, instance.target_line, instance.prior_line}
    last = _split_sentences(cot)[-1]
    return {cot, *parts, _frame_text(instance.task), last, LABEL_SENTENCES[instance.label]}


@pytest.mark.parametrize(
    "cot",
    [
        "The history covers superhero films. Edge of Tomorrow matches the profile. "
        "Therefore the user will interact with the target item.",
        "Edge of Tomorrow matches the preference profile, likelihood 88%.",
        "the user will interact with the target item",
    ],
)
def test_score_cot_embeds_each_distinct_text_once(cot, monkeypatch):
    instance = _peter_instance(candidates=_CANDIDATES)
    calls = _counting_tokenizer(monkeypatch)
    record = score_cot(instance, cot)
    assert len(calls) == 1
    (texts,) = calls
    assert len(texts) == len(set(texts))
    assert set(texts) == _scored_texts(instance, cot)
    # every dimension equals its own computation with unshared embeddings
    assert record.dims[1:] == tuple(
        oracle_score_semantic_dimension(dim, cot, instance, oracle_fallback_embed)
        for dim in ("completeness", "relevance", "consistency")
    )


def test_score_cots_tokenizes_each_distinct_text_of_a_chunk_once(monkeypatch):
    peter = _peter_instance(candidates=_CANDIDATES)
    other = build_instruction_instance(
        "mary", ["q20", "q27"], "q30", "likelihood 5%", _CATALOG, label=0
    )
    closing = "Therefore the user will interact with the target item."
    cots = [
        f"Edge of Tomorrow matches the profile. {closing}",
        f"The history covers superhero films. {closing}",
        f"Edge of Tomorrow matches the profile. {closing}",
        "",
        "  \n ",
        f"Oblivion fits the mood. {closing}",
    ]
    instances = [peter, peter, peter, other, other, other]
    calls = _counting_tokenizer(monkeypatch)
    records = score_cots(instances, cots)
    assert len(calls) == 1
    (texts,) = calls
    assert len(texts) == len(set(texts))
    expected = set()
    for instance, cot in zip(instances, cots):
        if cot.strip():
            expected |= _scored_texts(instance, cot)
    assert set(texts) == expected
    for record, instance, cot in zip(records, instances, cots):
        assert (record.instance, record.cot) == (instance, cot)
        assert (record.dims, record.score) == oracle_score_cot(instance, cot)


_WORDS = st.sampled_from(
    ["alpine", "Trail", "matches", "fits", "best", "good", "bad", "great", "the", "user",
     "will", "interact", "with", "target", "item", "ΑΣ", "é", "x_1", "likelihood", "88%"]
)
_PHRASE = st.lists(_WORDS, min_size=1, max_size=6).map(" ".join)


@st.composite
def _scored_instances(draw):
    """An instance over a drawn catalog, with candidates whose priors may tie exactly."""
    ids = [f"i{n}" for n in range(draw(st.integers(2, 6)))]
    catalog = {item: (draw(_PHRASE), draw(st.sampled_from(["", "tech saga", "Trail ΑΣ"])))
               for item in ids}
    history = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=5))
    priors = st.sampled_from([0.5, 0.25, 0.25, 0.125])
    candidates = [(item, catalog[item][0], draw(priors))
                  for item in draw(st.lists(st.sampled_from(ids), max_size=3, unique=True))]
    return build_instruction_instance(
        draw(st.sampled_from(["u1", "u2"])), history, draw(st.sampled_from(ids)),
        f"likelihood {draw(st.integers(0, 100))}%", catalog,
        k_prompt=draw(st.integers(1, 4)), label=draw(st.sampled_from([0, 1])),
        candidates=candidates,
    )


def _trace_for(instance):
    """Traces that name candidates after cues, end on a label sentence, or are blank."""
    names = [title for _, title, _ in instance.candidates or []] or ["nothing"]
    sentence = st.one_of(
        st.builds("{} matches {}.".format, _PHRASE, st.sampled_from(names)),
        st.builds("{}!".format, _PHRASE),
        st.sampled_from(list(LABEL_SENTENCES.values())),
    )
    return st.one_of(
        st.sampled_from(["", "   ", "\n\t"]),
        st.lists(sentence, min_size=1, max_size=4).map(" ".join),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_score_cots_matches_the_per_record_oracle(data):
    instances = data.draw(st.lists(_scored_instances(), min_size=1, max_size=6))
    cots = [data.draw(_trace_for(instance)) for instance in instances]
    records = score_cots(instances, cots)
    assert len(records) == len(instances)
    for record, instance, cot in zip(records, instances, cots):
        assert (record.dims, record.score) == oracle_score_cot(instance, cot)


@settings(max_examples=60, deadline=None)
@given(instance=_scored_instances())
def test_prompt_counts_are_the_reference_counts_plus_the_frame(instance):
    reference = " ".join([instance.history_text(), instance.target_line, instance.prior_line])
    prompt, ref, frame = token_counts([instance.text(), reference, _frame_text(instance.task)])
    assert np.array_equal(prompt, ref + frame)


@settings(max_examples=300, deadline=None)
@given(
    needle=st.text(alphabet="ab_ 9.é-", min_size=1, max_size=4),
    text=st.text(alphabet="ab_ 9.é-", max_size=24),
)
def test_whole_word_search_matches_the_regex(needle, text):
    pattern = re.compile(rf"(?<!\w){re.escape(needle)}(?!\w)")
    found = pattern.search(text)
    assert _find_whole_word(needle, text) == (found.start() if found else None)


_SENTENCE = st.builds("{}{}".format, _PHRASE, st.sampled_from([".", "!", "?", ""]))


@settings(max_examples=200, deadline=None)
@given(cot=st.one_of(st.sampled_from(["", "  \n"]),
                     st.lists(_SENTENCE, min_size=1, max_size=6).map(" ".join)))
def test_coherence_matches_the_per_trace_oracle(cot):
    """Polar words vary the sentence polarities and repeated words repeat
    3-grams; the score is the oracle's float."""
    assert score_coherence(cot) == oracle_score_coherence(cot)
