from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrec.cot import load_cot_fixture, load_explanation_fixture
from fusionrec.data import (
    Event,
    TrainingSequence,
    build_training_instances,
    filter_dataset,
    leave_one_out_split,
    load_catalog,
    load_interactions,
    partition_cold_warm,
    text_lines,
)
from fusionrec.errors import DataError
from fusionrec.semantic import load_embeddings


def _events(rows):
    return [Event(*row) for row in rows]


def _write_files(tmp_path, interaction_lines, catalog_lines):
    inter = tmp_path / "interactions.tsv"
    cat = tmp_path / "catalog.tsv"
    inter.write_text("".join(interaction_lines), encoding="utf-8")
    cat.write_text("".join(catalog_lines), encoding="utf-8")
    return inter, cat


def test_load_interactions_counts_and_duplicates(tmp_path):
    inter, cat = _write_files(
        tmp_path,
        [
            "u1\tq1\t1\t5.0\n",
            "u1\tq2\t2\t4.0\n",
            "u2\tq1\t1\t3.0\n",
            "u1\tq1\t3\t5.0\n",
        ],
        ["q1\tFirst\tfirst text\n", "q2\tSecond\tsecond text\n"],
    )
    assert load_interactions(inter, cat) == _events(
        [("u1", "q1", 1, 5.0), ("u1", "q2", 2, 4.0), ("u2", "q1", 1, 3.0), ("u1", "q1", 3, 5.0)]
    )
    assert load_catalog(cat)["q1"] == ("First", "first text")


def test_load_interactions_empty_file(tmp_path):
    inter, cat = _write_files(tmp_path, [], ["q1\tTitle\ttext\n"])
    assert load_interactions(inter, cat) == []


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="a\t \n\r\x0b\x0c\x1c\x85\u2028", max_size=30))
def test_text_lines_split_as_iterating_the_open_file_does(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("lines") / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        lines = [(lineno, line.rstrip("\n")) for lineno, line in enumerate(fh, start=1)]
    assert list(text_lines(path, "input")) == [(lineno, line) for lineno, line in lines if line]


def test_load_interactions_reports_bad_line_number(tmp_path):
    inter, cat = _write_files(
        tmp_path,
        ["u1\tq1\t1\t5.0\n", "u1\tq1\tnot_a_number\t5.0\n"],
        ["q1\tTitle\ttext\n"],
    )
    with pytest.raises(DataError, match="line 2"):
        load_interactions(inter, cat)


def test_load_interactions_rejects_wrong_field_count(tmp_path):
    inter, cat = _write_files(tmp_path, ["u1\tq1\t1\n"], ["q1\tTitle\ttext\n"])
    with pytest.raises(DataError, match="expected 4"):
        load_interactions(inter, cat)


def test_load_interactions_rejects_uncataloged_item(tmp_path):
    inter, cat = _write_files(tmp_path, ["u1\tq9\t1\t5.0\n"], ["q1\tTitle\ttext\n"])
    with pytest.raises(DataError, match="'q9'"):
        load_interactions(inter, cat)


_VECTOR = " ".join(["0.5"] * 768)


@pytest.mark.parametrize(
    "load, lines, kind, shown",
    [
        (load_catalog, ["a\tFirst\n", "b\tOther\n", "a\tSecond\ttext\n"], "catalog file", "'a'"),
        (load_embeddings, [f"a\t{_VECTOR}\n", f"b\t{_VECTOR}\n", f"a\t{_VECTOR}\n"],
         "embeddings file", "'a'"),
        (load_cot_fixture, ["u1\ta\t1\tfirst\n", "u2\ta\t1\tother\n", "u1\ta\t0\tsecond\n"],
         "cot fixture", "('u1', 'a')"),
        (load_explanation_fixture, ["u1\ta\tfirst\n", "u1\tb\tother\n", "u1\ta\tsecond\n"],
         "explanation fixture", "('u1', 'a')"),
    ],
    ids=["catalog", "embeddings", "cot-fixture", "explanation-fixture"],
)
def test_an_id_given_twice_in_a_keyed_file_is_a_data_error(tmp_path, load, lines, kind, shown):
    path = tmp_path / "input.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(DataError) as raised:
        load(path)
    assert str(raised.value) == f"id {shown} given twice in {kind} {path}, at lines 1 and 3"


def _bruteforce_filter(events, min_user, min_item):
    kept = list(events)
    while True:
        items = Counter(e.item for e in kept)
        users = Counter(e.user for e in kept)
        bad_items = {i for i, c in items.items() if c < min_item}
        survivors = [e for e in kept if e.item not in bad_items]
        users = Counter(e.user for e in survivors)
        bad_users = {u for u, c in users.items() if c < min_user}
        survivors = [e for e in survivors if e.user not in bad_users]
        if len(survivors) == len(kept):
            return kept
        kept = survivors


def test_filter_keeps_dense_data_unchanged():
    events = _events((f"u{u}", f"q{i}", i, 5.0) for u in range(3) for i in range(5))
    assert filter_dataset(events, min_user_events=5, min_item_popularity=3) == events


def test_filter_cascades_to_a_fixed_point():
    # Removing the sparse user drops q_rare below the popularity floor, and
    # removing q_rare takes a second user below the event floor.
    events = []
    for f in range(4):
        events += [(f"filler{f}", f"q{i}", i, 5.0) for i in range(5)]
    events += [("u_rich", f"q{i}", i, 5.0) for i in range(5)]
    events.append(("u_rich", "q_rare", 9, 5.0))
    events += [("u_mid", "q0", 1, 5.0), ("u_mid", "q1", 2, 5.0), ("u_mid", "q_rare", 9, 5.0)]
    events.append(("u_sparse", "q_rare", 9, 5.0))
    filtered = filter_dataset(_events(events), min_user_events=3, min_item_popularity=3)
    assert filtered == _bruteforce_filter(_events(events), 3, 3)
    users = {e.user for e in filtered}
    assert "u_sparse" not in users
    assert "q_rare" not in {e.item for e in filtered}
    assert "u_mid" not in users  # second-round casualty
    assert "u_rich" in users


def test_filter_rejects_bad_thresholds_and_total_wipeout():
    events = _events([("u1", "q1", 1, 5.0)])
    with pytest.raises(ValueError):
        filter_dataset(events, min_user_events=0)
    with pytest.raises(DataError, match="removed every event"):
        filter_dataset(events, min_user_events=2, min_item_popularity=2)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 7), st.integers(0, 20)),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 3),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_filter_matches_bruteforce_and_is_idempotent(raw, min_user, min_item):
    events = _events((f"u{u}", f"q{i}", t, 5.0) for u, i, t in raw)
    expected = _bruteforce_filter(events, min_user, min_item)
    try:
        filtered = filter_dataset(events, min_user, min_item)
    except DataError:
        assert expected == []
        return
    assert filtered == expected
    assert filter_dataset(filtered, min_user, min_item) == filtered


def test_split_orders_by_timestamp():
    events = _events([("u1", "c", 3, 5.0), ("u1", "a", 1, 5.0), ("u1", "b", 2, 5.0)])
    split = leave_one_out_split(events)
    assert split.full_sequence("u1") == ["a", "b", "c"]


def test_split_breaks_timestamp_ties_by_item_id():
    events = _events([("u1", "z", 1, 5.0), ("u1", "a", 1, 5.0), ("u1", "m", 2, 5.0)])
    split = leave_one_out_split(events)
    assert split.full_sequence("u1") == ["a", "z", "m"]


def test_split_keeps_repeat_interactions():
    split = leave_one_out_split(
        _events(
            [
                ("peter", "q5", 1, 5.0),
                ("peter", "q8", 2, 5.0),
                ("peter", "q10", 3, 5.0),
                ("peter", "q5", 4, 5.0),
            ]
        )
    )
    assert split.full_sequence("peter") == ["q5", "q8", "q10", "q5"]


def test_split_assigns_last_two_positions():
    split = leave_one_out_split(_events((("u1", i, t, 5.0) for t, i in enumerate("abc", start=1))))
    assert split.train["u1"] == ["a"]
    assert split.validation["u1"] == "b"
    assert split.test["u1"] == "c"
    assert split.full_sequence("u1") == ["a", "b", "c"]


def test_split_rejects_short_sequences():
    with pytest.raises(DataError, match="'u1'"):
        leave_one_out_split(_events([("u1", "a", 1, 5.0), ("u1", "b", 2, 5.0)]))


@given(st.lists(st.integers(3, 9), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_split_reconstructs_every_sequence(lengths):
    events = []
    for u, n in enumerate(lengths):
        for t in range(n):
            events.append((f"u{u}", f"q{u}_{t}", t, 5.0))
    split = leave_one_out_split(_events(events))
    for u, n in enumerate(lengths):
        assert split.full_sequence(f"u{u}") == [f"q{u}_{t}" for t in range(n)]


def _two_user_split():
    events = [("u1", i, t, 5.0) for t, i in enumerate(["a", "b", "c", "d", "e"], start=1)]
    events += [("u2", i, t, 5.0) for t, i in enumerate(["x", "y", "z"], start=1)]
    return leave_one_out_split(_events(events))


def test_training_instances_shift_positives_by_one():
    split = _two_user_split()  # u1 train region is a, b, c; u2's is x alone
    assert build_training_instances(split, max_history=50) == [
        TrainingSequence(user="u1", history=("a", "b"), targets=("b", "c"))
    ]


def test_training_instances_cut_to_max_history():
    events = [("u1", f"q{k}", k, 5.0) for k in range(9)]  # train region q0..q6
    split = leave_one_out_split(_events(events))
    (record,) = build_training_instances(split, max_history=3)
    assert record.history == ("q3", "q4", "q5")
    assert record.targets == ("q4", "q5", "q6")
    with pytest.raises(ValueError, match="max_history"):
        build_training_instances(split, max_history=0)


def test_training_instances_history_never_exceeds_train_region():
    split = _two_user_split()
    for inst in build_training_instances(split, max_history=50):
        train = split.train[inst.user]
        assert list(inst.history) == train[: len(inst.history)]
        assert list(inst.targets) == train[1 : len(inst.history) + 1]


def test_training_instances_hold_only_train_items():
    split = _two_user_split()
    held = {q for inst in build_training_instances(split, 50) for q in (*inst.history, *inst.targets)}
    assert held == {"a", "b", "c"}
    assert not held & (set(split.validation.values()) | set(split.test.values()))


def test_training_instances_draw_no_random_numbers():
    split = _two_user_split()
    assert build_training_instances(split, 50) == build_training_instances(split, 50)


def test_partition_bands_by_frequency():
    events = []
    for rank, i in enumerate(range(10)):
        for t in range(10 - rank):
            events.append((f"u{t}", f"q{i}", t, 5.0))
    partition = partition_cold_warm(_events(events), fraction=0.35)
    assert partition.warm == {"q0", "q1", "q2"}
    assert partition.cold == {"q7", "q8", "q9"}
    assert partition.frequency["q0"] == 10


def test_partition_ties_break_by_item_id():
    events = [(f"u{t}", i, t, 5.0) for i in ("a", "b", "c", "d") for t in range(2)]
    partition = partition_cold_warm(_events(events), fraction=0.5)
    assert partition.warm == {"a", "b"}
    assert partition.cold == {"c", "d"}


def test_partition_validates_inputs():
    events = _events([("u1", "a", 1, 5.0)])
    with pytest.raises(ValueError):
        partition_cold_warm(events, fraction=0.6)
    with pytest.raises(DataError, match="at least 2"):
        partition_cold_warm(events, fraction=0.35)


@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 12)), min_size=2, max_size=60),
    st.floats(0.05, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_partition_invariants_hold_on_random_logs(raw, fraction):
    events = _events((f"u{u}", f"q{i:02d}", t, 5.0) for t, (u, i) in enumerate(raw))
    freq = Counter(e.item for e in events)
    if len(freq) < 2:
        return
    partition = partition_cold_warm(events, fraction=fraction)
    n_band = math.floor(fraction * len(freq))
    assert len(partition.cold) == n_band
    assert len(partition.warm) == n_band
    assert not partition.cold & partition.warm
    assert partition.frequency == freq
    if partition.cold and partition.warm:
        assert max(freq[i] for i in partition.cold) <= min(freq[i] for i in partition.warm)
