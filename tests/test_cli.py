"""End-to-end checks for the command-line pipeline runner."""

from __future__ import annotations

import contextlib
import errno
import fcntl
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest

import fusionrec
from fusionrec.cf import FORWARD_ROWS, item_probabilities, verbalize_prior, warm_user_representations
from fusionrec.checkpoint import load_checkpoint, save_checkpoint
from fusionrec.cli import STAGES, _read, main
from fusionrec.config import parse_config
from fusionrec.cot import FixtureAdapter, build_instruction_instance, generate_cot
from fusionrec.semantic import embed_catalog
from fusionrec.synthetic import make_planted_dataset, write_dataset
from oracles import dump_cot_fixture, oracle_rank_by_score, oracle_score_cot

_STAGES = [
    "prepare",
    "train-cf",
    "train-align",
    "cot",
    "train-proj",
    "eval",
    "sweep",
    "report",
]

_ARTIFACTS = [
    "split.json",
    "partition.json",
    "cf.ckpt",
    "align.ckpt",
    "cots.json",
    "proj.ckpt",
    "report_standard.json",
    "sweep.json",
    "sweep.txt",
    "report.txt",
]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _write_world(root):
    dataset = make_planted_dataset(30, 16, seed=5)
    interactions = root / "interactions.tsv"
    catalog = root / "catalog.tsv"
    write_dataset(dataset, interactions, catalog)
    return interactions, catalog


def _write_config(path, interactions, catalog, extra_lines=()):
    lines = [
        "# small settings so the whole chain runs in seconds",
        "seed = 0",
        f"data.interactions = {interactions}",
        f"data.catalog = {catalog}",
        "data.min_user_events = 3",
        "data.min_item_popularity = 1",
        "cf.embed_dim = 12",
        "cf.max_history = 8",
        "cf.blocks = 1",
        "cf.heads = 2",
        "cf.epochs = 3",
        "cf.batch_size = 16",
        "align.latent_dim = 10",
        "align.epochs = 3",
        "align.batch_size = 8",
        "cot.sample_size = 5",
        "proj.d_token = 32",
        "proj.hidden = 16",
        "proj.epochs = 1",
        "proj.batch_size = 8",
        "proj.slate_size = 8",
        "eval.ks = 1, 5",
        "eval.pool_size = 10",
    ]
    # an extra line takes the place of the base line that sets its key
    extra = {line.partition("=")[0].strip(): line for line in extra_lines}
    lines = [extra.pop(line.partition("=")[0].strip(), line) for line in lines]
    lines.extend(extra.values())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run_chain(config, out_dir) -> dict[str, tuple[int, str, str]]:
    results = {}
    for stage in _STAGES:
        results[stage] = _run(
            [stage, "--config", str(config), "--out", str(out_dir), "--seed", "0"]
        )
    return results


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    interactions, catalog = _write_world(root)
    config = root / "run.conf"
    _write_config(config, interactions, catalog)
    out_dir = root / "run1"
    results = _run_chain(config, out_dir)
    return {
        "root": root,
        "config": config,
        "out": out_dir,
        "interactions": interactions,
        "catalog": catalog,
        "results": results,
    }


def test_every_stage_exits_zero(chain):
    for stage in _STAGES:
        rc, _, err = chain["results"][stage]
        assert rc == 0, f"{stage} failed: {err}"
        assert err == ""


def test_chain_writes_expected_artifacts(chain):
    for name in _ARTIFACTS:
        assert os.path.exists(chain["out"] / name), name
    coldwarm = chain["out"] / "report_coldwarm.json"
    eval_out = chain["results"]["eval"][1]
    assert coldwarm.exists() or "cold/warm breakdown skipped:" in eval_out
    assert not (chain["out"] / ".lock").exists()


def test_train_align_summary_counts_users_and_trained_columns(tmp_path):
    dataset = make_planted_dataset(30, 16, seed=5, n_cold_users=6)
    # "stray" ends on items no train sequence holds, so it gets no triple;
    # "ghost" has one train item that no CF record holds, so it is dropped
    extra = {"stray": ["a00", "a01", "a02", "n01", "n02"], "ghost": ["g01", "g02", "g03"]}
    for user, items in extra.items():
        dataset.events.extend((user, item, ts, 1.0) for ts, item in enumerate(items))
    for item in ("n01", "n02", "g01", "g02", "g03"):
        dataset.catalog[item] = (f"novel {item}", f"novel series {item}")
    interactions, catalog = tmp_path / "interactions.tsv", tmp_path / "catalog.tsv"
    write_dataset(dataset, interactions, catalog)
    config = tmp_path / "run.conf"
    _write_config(config, interactions, catalog)
    out_dir = tmp_path / "cold"
    for stage in ("prepare", "train-cf", "train-align"):
        rc, out, err = _run([stage, "--config", str(config), "--out", str(out_dir)])
        assert rc == 0, err

    split = json.loads((out_dir / "split.json").read_text(encoding="utf-8"))
    vocab = set(load_checkpoint(out_dir / "cf.ckpt")[1]["items"])
    users = sorted(split["train"])
    paired = {u for u in users if vocab.intersection(split["train"][u])}
    tripled = {u for u in paired if split["validation"][u] in vocab}
    semantic = embed_catalog(dataset.catalog)
    live = np.any([semantic[item] != 0.0 for item in vocab], axis=0)
    expected = (
        f"trained alignment on {len(paired)} user examples; "
        f"{len(users) - len(tripled)} of {len(users)} users got no triple, "
        f"{len(users) - len(paired)} dropped; "
        f"trained {np.count_nonzero(live)} of 768 semantic columns; final epoch loss "
    )
    assert {"stray", "ghost"} <= set(users) - tripled and "ghost" not in paired
    assert 0 < np.count_nonzero(live) < 768
    assert out.startswith(expected)


def test_align_checkpoint_stays_full_width_with_zero_dead_decoder_rows(tmp_path):
    interactions, catalog = _write_world(tmp_path)
    config = tmp_path / "run.conf"
    _write_config(config, interactions, catalog)
    out_dir = tmp_path / "out"
    for stage in ("prepare", "train-cf", "train-align"):
        rc, out, err = _run([stage, "--config", str(config), "--out", str(out_dir)])
        assert rc == 0, err
    trained = int(re.search(r"trained (\d+) of 768 semantic columns", out).group(1))
    assert 0 < trained < 768

    kind, meta, arrays = load_checkpoint(out_dir / "align.ckpt")
    assert kind == "align" and meta["sem_dim"] == 768
    assert arrays["enc_s.w"].shape == (10, 768)
    assert arrays["dec_s.w"].shape == (768, 10) and arrays["dec_s.b"].shape == (768,)
    zero_rows = ~arrays["dec_s.w"].any(axis=1)
    assert np.count_nonzero(zero_rows) == 768 - trained
    assert not arrays["dec_s.b"][zero_rows].any() and arrays["dec_s.b"][~zero_rows].all()


def test_the_train_align_stage_frees_the_full_width_semantic_rows_before_training(
    tmp_path, monkeypatch
):
    refs = []

    def recording_build(*args, **kwargs):
        dataset = fusionrec.align.build_alignment_dataset(*args, **kwargs)
        refs.append(weakref.ref(dataset.q))
        return dataset

    alive_at_fit = []

    def checking_fit(*args, **kwargs):
        alive_at_fit.append(refs[0]() is not None)
        return fusionrec.optim.fit(*args, **kwargs)

    monkeypatch.setattr(fusionrec.cli, "build_alignment_dataset", recording_build)
    monkeypatch.setattr(fusionrec.align, "fit", checking_fit)
    interactions, catalog = _write_world(tmp_path)
    config = tmp_path / "run.conf"
    _write_config(config, interactions, catalog)
    for stage in ("prepare", "train-cf", "train-align"):
        rc, _, err = _run([stage, "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 0, err
    assert alive_at_fit == [False]


def test_cot_records_match_the_per_record_oracle_across_a_chunk_boundary(tmp_path, monkeypatch):
    dataset = make_planted_dataset(FORWARD_ROWS + 15, 16, seed=3)
    interactions, catalog = tmp_path / "interactions.tsv", tmp_path / "catalog.tsv"
    write_dataset(dataset, interactions, catalog)
    fixture = tmp_path / "cots.tsv"
    fixture.touch()  # written once the split is known
    config = tmp_path / "run.conf"
    _write_config(config, interactions, catalog,
                  ["cot.sample_size = 0", f"data.cot_fixture = {fixture}"])
    out_dir = tmp_path / "out"
    for stage in ("prepare", "train-cf"):
        rc, _, err = _run([stage, "--config", str(config), "--out", str(out_dir)])
        assert rc == 0, err
    split = _read(str(out_dir / "split.json"))
    model = _read(str(out_dir / "cf.ckpt"))
    closing = "Therefore the user will interact with the target item."
    titles = sorted({title for title, _ in dataset.catalog.values()})
    shapes = [
        lambda n: "",
        lambda n: "  \n ",
        lambda n: f"The history is steady. {titles[n % len(titles)]} matches the profile. {closing}",
        lambda n: f"{closing} {closing}",
        lambda n: "Great pick. Terrible pick.",
        lambda n: f"{titles[(3 * n) % len(titles)]} fits best, {model.items[n % len(model.items)]}.",
    ]
    corpus = {(user, split.validation[user]): shapes[n % len(shapes)](n)
              for n, user in enumerate(split.users())}
    dump_cot_fixture(fixture, [(user, item, 1, text) for (user, item), text in corpus.items()])

    def tied(model, rep):  # coarse priors, so candidates tie exactly
        return np.round(item_probabilities(model, rep), 1)

    monkeypatch.setattr(fusionrec.cli, "item_probabilities", tied)
    rc, _, err = _run(["cot", "--config", str(config), "--out", str(out_dir)])
    assert rc == 0, err
    rows = json.loads((out_dir / "cots.json").read_text(encoding="utf-8"))["records"]

    warm, reps = warm_user_representations(model, split, split.users())
    assert len(warm) >= FORWARD_ROWS + 5
    settings = parse_config(config)
    adapter = FixtureAdapter(corpus)
    expected, ties = [], 0
    for (user, history), rep in zip(warm.items(), reps):
        probs = tied(model, rep)
        candidates = [(item, dataset.catalog[item][0], float(probs[model.item_index[item] - 1]))
                      for item in oracle_rank_by_score(model.items, probs)[:3]]
        ties += len({prior for _, _, prior in candidates}) < len(candidates)
        target = split.validation[user]
        instance = build_instruction_instance(
            user, history, target, verbalize_prior(float(probs[model.item_index[target] - 1])),
            dataset.catalog, k_prompt=settings.get("cot.k_prompt"), candidates=candidates,
        )
        cot = generate_cot(adapter, instance)
        dims, score = oracle_score_cot(instance, cot, settings.get("cot.weights"))
        expected.append((user, target, cot, list(dims), score))
    assert ties > 0
    assert sorted(expected) == [
        (row["user"], row["item"], row["cot"], row["dims"], row["score"]) for row in rows
    ]


def test_no_stage_imports_numpy_ma(chain):
    """numpy.ma costs a noticeable import time in every process that loads it;
    `np.setdiff1d` and `np.unique` pull it in."""
    code = (
        "import contextlib, io, sys\n"
        "from fusionrec.cli import main\n"
        f"stages = {_STAGES!r}\n"
        "for stage in stages:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([stage, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0, stage\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(fusionrec.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code, str(chain["config"]), str(chain["root"] / "ma_out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "False"


def test_stage_banners_summarize_progress(chain):
    results = chain["results"]
    assert results["prepare"][1].startswith("prepared ")
    assert "trained cf on" in results["train-cf"][1]
    assert "trained alignment on" in results["train-align"][1]
    assert "coverage" in results["cot"][1]
    assert "trained projections on" in results["train-proj"][1]
    assert "config digest:" in results["report"][1]
    assert "== cf ==" in results["report"][1]


def test_eval_and_train_proj_print_their_pool_shortfalls(chain):
    with open(chain["out"] / "split.json", encoding="utf-8") as fh:
        split = json.load(fh)
    owned = {
        user: {*split["train"][user], split["validation"][user], split["test"][user]}
        for user in split["train"]
    }
    universe = set().union(*owned.values())

    def short(size: int) -> int:
        return sum(len(universe - items) < size - 1 for items in owned.values())

    n_users = len(owned)
    results = chain["results"]
    assert f"pool shortfalls: {short(10)} of {n_users} users" in results["eval"][1]
    assert f"pool shortfalls: {short(8)} of {n_users} users" in results["train-proj"][1]


def test_artifacts_embed_config_digest_and_seed(chain):
    digest = parse_config(str(chain["config"])).digest()
    with open(chain["out"] / "split.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["meta"] == {"config_digest": digest, "seed": 0}
    with open(chain["out"] / "cots.json", encoding="utf-8") as fh:
        cots = json.load(fh)
    assert cots["meta"] == {"config_digest": digest, "seed": 0}


def test_standard_report_is_well_formed(chain):
    with open(chain["out"] / "report_standard.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["protocol"] == "standard"
    assert report["n_users"] > 0
    assert set(report["hr"]) == {"1", "5"}
    for per_k in (report["hr"], report["ndcg"]):
        for value in per_k.values():
            assert 0.0 <= value <= 1.0
    assert report["hr"]["1"] <= report["hr"]["5"]
    assert report["bleu4"] is None and report["rouge1"] is None


def test_rerun_refuses_then_force_overwrites(chain):
    args = ["prepare", "--config", str(chain["config"]), "--out", str(chain["out"]), "--seed", "0"]
    rc, _, err = _run(args)
    assert rc == 2
    assert err.startswith("error: refusing to overwrite")
    before = (chain["out"] / "split.json").read_bytes()
    rc, _, err = _run(args + ["--force"])
    assert rc == 0, err
    assert (chain["out"] / "split.json").read_bytes() == before


def test_missing_dependencies_are_reported(chain, tmp_path):
    rc, _, err = _run(
        ["train-cf", "--config", str(chain["config"]), "--out", str(tmp_path / "a"), "--seed", "0"]
    )
    assert rc == 5
    assert "train-cf requires split.json; run prepare first" in err
    rc, _, err = _run(
        ["sweep", "--config", str(chain["config"]), "--out", str(tmp_path / "b"), "--seed", "0"]
    )
    assert rc == 5
    assert "sweep requires cots.json; run cot first" in err


def _prepare_in(chain, out_dir) -> tuple[int, str, str]:
    return _run(["prepare", "--config", str(chain["config"]), "--out", str(out_dir), "--seed", "0"])


def test_a_held_directory_lock_blocks_the_stage(chain, tmp_path):
    out_dir = tmp_path / "locked"
    out_dir.mkdir()
    fd = os.open(out_dir, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        rc, _, err = _prepare_in(chain, out_dir)
    finally:
        os.close(fd)
    assert rc == 5
    assert err.startswith("error: output directory is locked") and err.count("\n") == 1, err
    assert os.listdir(out_dir) == []


def test_a_killed_holder_leaves_no_lock(chain, tmp_path):
    out_dir = tmp_path / "killed"
    out_dir.mkdir()
    holder = (
        "import os, signal, sys\n"
        "from fusionrec.cli import _output_lock\n"
        "with _output_lock(sys.argv[1]):\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fusionrec.__file__))}
    child = subprocess.run([sys.executable, "-c", holder, str(out_dir)], env=env, timeout=60)
    assert child.returncode == -signal.SIGKILL
    rc, _, err = _prepare_in(chain, out_dir)
    assert rc == 0, err
    assert (out_dir / "split.json").exists()
    assert not (out_dir / ".lock").exists()


@pytest.mark.parametrize(
    "content", ["live-pid", "not a pid\n", ""], ids=["live-pid", "not-a-pid", "empty"]
)
def test_a_stray_lock_file_does_not_block(chain, tmp_path, content):
    if content == "live-pid":
        content = f"{os.getpid()}\n"
    out_dir = tmp_path / "stray"
    out_dir.mkdir()
    (out_dir / ".lock").write_text(content, encoding="utf-8")
    rc, _, err = _prepare_in(chain, out_dir)
    assert rc == 0, err
    assert (out_dir / "split.json").exists()
    assert (out_dir / ".lock").read_text(encoding="utf-8") == content


def test_a_directory_that_cannot_be_locked_is_exit_2(chain, tmp_path, monkeypatch):
    def refuse(fd, operation):
        raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

    monkeypatch.setattr(fcntl, "flock", refuse)
    out_dir = tmp_path / "no-locks"
    rc, _, err = _prepare_in(chain, out_dir)
    assert rc == 2
    assert err.startswith("error: --out ") and "cannot be locked" in err, err
    assert err.count("\n") == 1, err
    assert os.listdir(out_dir) == []


def _ckpt_with_header(header: bytes) -> bytes:
    return b"FRCKPT1\n" + f"{len(header)}\n".encode("ascii") + header + b"\n"


def _resaved(edit):
    """A damage that loads the checkpoint, lets `edit(meta, arrays)` change it
    in place, and saves it again as a well-formed file."""

    def damage(blob: bytes) -> bytes:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edited.ckpt")
            with open(path, "wb") as fh:
                fh.write(blob)
            kind, meta, arrays = load_checkpoint(path)
            edit(meta, arrays)
            save_checkpoint(path, kind, meta, arrays)
            with open(path, "rb") as fh:
                return fh.read()

    return damage


def _repeat_the_first_item(meta, arrays):
    meta["items"][1] = meta["items"][0]


def _poke(name: str, index: tuple, value: float):
    """An edit that sets entry `index` of array `name` to `value`."""

    def edit(meta, arrays):
        arrays[name][index] = value

    return edit


def _meta(*path, to):
    """An edit that replaces the meta entry at `path` with `to` of its value."""

    def edit(meta, arrays):
        *parents, last = path
        for key in parents:
            meta = meta[key]
        meta[last] = to(meta[last])

    return edit


def _json_edited(edit):
    """A damage that parses a JSON artifact, lets `edit(payload)` change it in
    place, and writes it again as well-formed JSON."""

    def damage(blob: bytes) -> bytes:
        payload = json.loads(blob)
        edit(payload)
        return json.dumps(payload).encode("utf-8")

    return damage


def _drop_first_test_user(payload):
    del payload["test"][min(payload["test"])]


def _first_validation_a_list(payload):
    validation = payload["validation"]
    user = min(validation)
    validation[user] = [validation[user]]


def _first_train_sequence_a_string(payload):
    user = min(payload["train"])
    payload["train"][user] = "".join(payload["train"][user])


def _first_train_sequence_empty(payload):
    payload["train"][min(payload["train"])] = []


def _second_record_for_the_first_pair(payload):
    """A second record for the first (user, item), with another trace; the
    coverage stays the retained share of the records."""
    records = payload["records"]
    records.append(dict(records[0], cot=records[0]["cot"] + " Again."))
    payload["coverage"] = sum(row["retained"] for row in records) / len(records)


def _coverage_one_record_off(payload):
    records = payload["records"]
    payload["coverage"] = (sum(row["retained"] for row in records) + 1) / len(records)


def _first_kept_record_dropped(payload):
    """A retained record marked dropped, with the coverage still its share."""
    records = payload["records"]
    next(row for row in records if row["retained"])["retained"] = False
    payload["coverage"] = sum(row["retained"] for row in records) / len(records)


def _first_warm_item_also_cold(payload):
    payload["cold"].append(payload["warm"][0])


@pytest.mark.parametrize(
    "artifact, damage, stage",
    [
        pytest.param("cf.ckpt", lambda blob: blob[:60], "train-align", id="cf-cut"),
        pytest.param(
            "cf.ckpt", lambda blob: _ckpt_with_header(b'{"kind":"cf","meta":{}}'), "cot",
            id="cf-no-arrays",
        ),
        pytest.param(
            "cf.ckpt", lambda blob: _ckpt_with_header(b'{"arrays":[],"kind":"cf","meta":{}}'), "cot",
            id="cf-no-items",
        ),
        pytest.param(
            "cf.ckpt",
            lambda blob: _ckpt_with_header(
                b'{"arrays":[{"name":"w","shape":["x"]}],"kind":"cf","meta":{}}'
            ),
            "report",
            id="cf-shape-not-an-int",
        ),
        pytest.param(
            "cf.ckpt", lambda blob: _ckpt_with_header(b'{"arrays":[],"kind":"cf","meta":[]}'), "report",
            id="cf-meta-a-list",
        ),
        pytest.param(
            "cf.ckpt",
            lambda blob: _ckpt_with_header(
                b'{"arrays":[],"kind":"align","meta":{"training_log":[0.5]}}'
            ),
            "report",
            id="cf-of-kind-align",
        ),
        pytest.param("split.json", lambda blob: blob[:3], "train-cf", id="split-cut"),
        pytest.param("split.json", lambda blob: b"\xff\xfe" + blob, "train-align", id="split-bad-utf8"),
        pytest.param("split.json", lambda blob: b'{"train": {}}', "eval", id="split-no-keys"),
        pytest.param(
            "split.json", _json_edited(_drop_first_test_user), "train-align",
            id="split-users-differ",
        ),
        pytest.param(
            "split.json", _json_edited(_first_validation_a_list), "train-align",
            id="split-validation-a-list-align",
        ),
        pytest.param(
            "split.json", _json_edited(_first_validation_a_list), "eval",
            id="split-validation-a-list-eval",
        ),
        pytest.param(
            "split.json", _json_edited(_first_train_sequence_a_string), "train-cf",
            id="split-train-a-string",
        ),
        pytest.param("cots.json", lambda blob: b"{}", "sweep", id="cots-no-records"),
        pytest.param(
            "cots.json", _json_edited(lambda payload: payload["records"][0].update(score="1")), "sweep",
            id="cots-score-a-string",
        ),
        pytest.param(
            "cots.json",
            _json_edited(lambda payload: payload["records"][0].update(cot=7)),
            "train-proj",
            id="cots-cot-an-int",
        ),
        pytest.param("partition.json", lambda blob: b'{"cold": []}', "eval", id="partition-no-warm"),
        pytest.param(
            "partition.json", _json_edited(lambda payload: payload.update(cold="u1")), "eval",
            id="partition-cold-a-string",
        ),
        pytest.param(
            "report_standard.json", lambda blob: b'{"hr": {}}', "report",
            id="report-no-users",
        ),
        pytest.param(
            "cf.ckpt", _resaved(lambda meta, arrays: arrays.pop("blk0.wq")), "eval",
            id="cf-array-missing-eval",
        ),
        pytest.param(
            "cf.ckpt", _resaved(lambda meta, arrays: arrays.pop("blk0.wq")), "cot",
            id="cf-array-missing-cot",
        ),
        pytest.param(
            "cf.ckpt", _resaved(lambda meta, arrays: meta["config"].update(blocks=2)), "cot",
            id="cf-blocks-over-arrays",
        ),
        pytest.param(
            "cf.ckpt", _resaved(lambda meta, arrays: meta["config"].update(embed_dim=16)), "eval",
            id="cf-embed-dim-over-arrays",
        ),
        pytest.param(
            "cf.ckpt", _resaved(lambda meta, arrays: arrays.update(extra=np.zeros(2))), "eval",
            id="cf-extra-array",
        ),
        pytest.param("cf.ckpt", _resaved(_repeat_the_first_item), "eval", id="cf-item-twice"),
        pytest.param(
            "align.ckpt", _resaved(lambda meta, arrays: meta.update(latent_dim=7)), "train-proj",
            id="align-latent-dim-over-arrays",
        ),
        pytest.param(
            "align.ckpt", _resaved(lambda meta, arrays: arrays.pop("dec_c.w")), "train-proj",
            id="align-array-missing",
        ),
        pytest.param("cf.ckpt", _resaved(_poke("item_emb", (5, 0), np.nan)), "eval", id="cf-nan-eval"),
        pytest.param(
            "align.ckpt", _resaved(_poke("enc_s.w", (0, 0), np.inf)), "train-proj",
            id="align-inf-train-proj",
        ),
        pytest.param(
            "proj.ckpt", _resaved(_poke("fz.w2", (0, 0), np.nan)), "report",
            id="proj-nan-report",
        ),
        pytest.param(
            "proj.ckpt", _resaved(lambda meta, arrays: arrays.pop("head.token_emb")), "report",
            id="proj-array-missing",
        ),
        pytest.param(
            "proj.ckpt",
            _resaved(lambda meta, arrays: meta.update(training_log=[0.5, "0.25"])),
            "report",
            id="proj-log-a-string",
        ),
        pytest.param(
            "cf.ckpt", _resaved(_meta("config", "embed_dim", to=float)), "eval",
            id="cf-embed-dim-a-float",
        ),
        pytest.param(
            "cf.ckpt", _resaved(_meta("config", "heads", to=float)), "eval",
            id="cf-heads-a-float",
        ),
        pytest.param(
            "cf.ckpt", _resaved(_meta("config", "heads", to=lambda value: True)), "eval",
            id="cf-heads-a-bool",
        ),
        pytest.param(
            "cf.ckpt", _resaved(_meta("config", "learning_rate", to=lambda value: "fast")), "eval",
            id="cf-rate-a-string",
        ),
        pytest.param(
            "cf.ckpt", _resaved(_meta("config", "optimizer", to=lambda value: 3)), "eval",
            id="cf-optimizer-an-int",
        ),
        pytest.param(
            "cf.ckpt", _resaved(_meta("items", 0, to=lambda value: 12345)), "eval",
            id="cf-item-an-int",
        ),
        pytest.param(
            "align.ckpt", _resaved(_meta("latent_dim", to=float)), "train-proj",
            id="align-latent-dim-a-float",
        ),
        pytest.param(
            "align.ckpt", _resaved(_meta("alpha", to=lambda value: True)), "train-proj",
            id="align-alpha-a-bool",
        ),
        pytest.param(
            "proj.ckpt", _resaved(_meta("d_token", to=float)), "report",
            id="proj-d-token-a-float",
        ),
        pytest.param(
            "proj.ckpt", _resaved(_meta("vocabulary", 0, to=lambda value: 7)), "report",
            id="proj-token-an-int",
        ),
        pytest.param(
            "proj.ckpt", _resaved(_meta("head_seed", to=str)), "report",
            id="proj-head-seed-a-string",
        ),
        pytest.param(
            "split.json", _json_edited(_first_train_sequence_empty), "train-proj",
            id="split-train-empty",
        ),
        pytest.param(
            "cf.ckpt", _resaved(lambda meta, arrays: meta["config"].pop("heads")), "eval",
            id="cf-heads-missing",
        ),
        pytest.param(
            "cots.json", _json_edited(_second_record_for_the_first_pair), "train-proj",
            id="cots-pair-twice",
        ),
        pytest.param(
            "cots.json", _json_edited(_coverage_one_record_off), "report",
            id="cots-coverage-not-the-retained-share",
        ),
        pytest.param(
            "partition.json", _json_edited(_first_warm_item_also_cold), "eval",
            id="partition-item-cold-and-warm",
        ),
        pytest.param(
            "cots.json", _json_edited(_first_kept_record_dropped), "train-proj",
            id="cots-retained-against-the-threshold",
        ),
    ],
)
def test_corrupt_artifact_is_one_error_line_and_exit_3(chain, tmp_path, artifact, damage, stage):
    out_dir = tmp_path / "damaged"
    shutil.copytree(chain["out"], out_dir)
    path = out_dir / artifact
    path.write_bytes(damage(path.read_bytes()))
    rc, _, err = _run(
        [stage, "--config", str(chain["config"]), "--out", str(out_dir), "--seed", "0", "--force"]
    )
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert artifact in err
    assert not (out_dir / ".lock").exists()


_OUTPUTS = [(stage, filename) for stage, spec in STAGES.items() for filename in spec.writes]


@pytest.mark.parametrize("cut", ["empty", "half", "directory"])
@pytest.mark.parametrize("producer, artifact", _OUTPUTS, ids=[name for _, name in _OUTPUTS])
def test_truncated_artifact_fails_cleanly_in_every_later_stage(
    chain, tmp_path, producer, artifact, cut
):
    out_dir = tmp_path / "cut"
    shutil.copytree(chain["out"], out_dir)
    path = out_dir / artifact
    if cut == "directory":
        path.unlink()
        path.mkdir()
    else:
        blob = path.read_bytes()
        path.write_bytes(b"" if cut == "empty" else blob[: len(blob) // 2])
    stages = list(STAGES)
    args = ["--config", str(chain["config"]), "--out", str(out_dir), "--seed", "0", "--force"]
    for stage in stages[stages.index(producer) + 1 :]:
        rc, _, err = _run([stage] + args)
        assert rc in (0, 3, 5), (stage, err)
        if rc != 0:
            assert err.startswith("error: ") and err.count("\n") == 1, (stage, err)
            assert artifact in err, (stage, err)
        assert not (out_dir / ".lock").exists()


def test_forced_eval_without_a_cold_cohort_removes_the_old_coldwarm_report(chain, tmp_path):
    out_dir = tmp_path / "all-warm"
    shutil.copytree(chain["out"], out_dir)
    assert (out_dir / "report_coldwarm.json").exists()
    partition_path = out_dir / "partition.json"
    partition = json.loads(partition_path.read_text(encoding="utf-8"))
    partition["warm"] = sorted(partition["warm"] + partition["cold"])
    partition["cold"] = []
    partition_path.write_text(json.dumps(partition), encoding="utf-8")
    args = ["--config", str(chain["config"]), "--out", str(out_dir), "--seed", "0", "--force"]
    rc, out, err = _run(["eval"] + args)
    assert rc == 0, err
    assert "cold/warm breakdown skipped: cold cohort is empty" in out
    rc, _, err = _run(["report"] + args)
    assert rc == 0, err
    assert not (out_dir / "report_coldwarm.json").exists()
    assert "evaluation (cold/warm)" not in (out_dir / "report.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("checkpoint", ["cf.ckpt", "align.ckpt", "proj.ckpt"])
@pytest.mark.parametrize(
    "damage",
    [lambda blob: blob[: len(blob) // 2], lambda blob: blob + bytes(8)],
    ids=["cut", "extended"],
)
def test_report_refuses_a_checkpoint_whose_size_disagrees_with_its_header(
    chain, tmp_path, checkpoint, damage
):
    out_dir = tmp_path / "resized"
    shutil.copytree(chain["out"], out_dir)
    path = out_dir / checkpoint
    path.write_bytes(damage(path.read_bytes()))
    rc, _, err = _run(
        ["report", "--config", str(chain["config"]), "--out", str(out_dir), "--seed", "0", "--force"]
    )
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert checkpoint in err


def test_pool_shorter_than_the_largest_cutoff_is_a_data_error(chain, tmp_path):
    out_dir = tmp_path / "short-pools"
    shutil.copytree(chain["out"], out_dir)
    config = tmp_path / "short-pools.conf"
    _write_config(
        config, chain["interactions"], chain["catalog"], ["eval.ks = 1, 5, 10", "eval.pool_size = 12"]
    )
    rc, _, err = _run(["eval", "--config", str(config), "--out", str(out_dir), "--seed", "0", "--force"])
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert re.search(r"user 'u\d+' has a pool of \d+ items \(candidate pool size 12\), fewer than k=10", err)
    assert not (out_dir / ".lock").exists()


def _edited_catalog(chain, tmp_path, edit) -> tuple[str, list[str]]:
    """A copy of the chain's artifacts and a config over a catalog changed by
    `edit(catalog, split)`, which returns the item it changed."""
    out_dir = tmp_path / "edited"
    shutil.copytree(chain["out"], out_dir)
    split = json.loads((out_dir / "split.json").read_text(encoding="utf-8"))
    lines = chain["catalog"].read_text(encoding="utf-8").splitlines()
    catalog = {line.split("\t", 1)[0]: line for line in lines}
    item = edit(catalog, split)
    edited = tmp_path / "edited.tsv"
    edited.write_text("".join(line + "\n" for line in catalog.values()), encoding="utf-8")
    config = tmp_path / "edited.conf"
    _write_config(config, chain["interactions"], edited)
    return item, ["--config", str(config), "--out", str(out_dir), "--seed", "0", "--force"]


def _drop_a_validation_item(catalog, split) -> str:
    item = split["validation"][min(split["validation"])]
    del catalog[item]
    return item


def _drop_a_train_item(catalog, split) -> str:
    item = split["train"][min(split["train"])][0]
    del catalog[item]
    return item


def _blank_a_validation_title(catalog, split) -> str:
    item = split["validation"][min(split["validation"])]
    _, _, description = catalog[item].split("\t", 2)
    catalog[item] = f"{item}\t\t{description}"
    return item


@pytest.mark.parametrize(
    "edit", [_drop_a_validation_item, _blank_a_validation_title], ids=["dropped", "empty-title"]
)
def test_train_proj_catalog_faults_are_one_error_line_and_exit_3(chain, tmp_path, edit):
    item, args = _edited_catalog(chain, tmp_path, edit)
    rc, _, err = _run(["train-proj"] + args)
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert repr(item) in err


@pytest.mark.parametrize(
    "edit", [_drop_a_validation_item, _drop_a_train_item], ids=["validation-item", "train-item"]
)
@pytest.mark.parametrize("stage", ["cot", "train-proj", "eval"])
def test_a_catalog_without_a_split_item_fails_cleanly_in_every_stage_that_reads_it(
    chain, tmp_path, stage, edit
):
    _, args = _edited_catalog(chain, tmp_path, edit)
    rc, _, err = _run([stage] + args)
    assert rc in (0, 3), (stage, err)
    if rc != 0:
        assert err.startswith("error: ") and err.count("\n") == 1, (stage, err)


def test_eval_of_a_cold_item_without_align_ckpt_asks_for_train_align(tmp_path):
    interactions, catalog = tmp_path / "interactions.tsv", tmp_path / "catalog.tsv"
    write_dataset(make_planted_dataset(30, 16, seed=5, n_cold_users=10), interactions, catalog)
    config = tmp_path / "run.conf"
    _write_config(config, interactions, catalog)
    args = ["--config", str(config), "--out", str(tmp_path / "out"), "--seed", "0"]
    for stage in ("prepare", "train-cf"):
        assert _run([stage] + args)[0] == 0, stage
    rc, _, err = _run(["eval"] + args)
    assert rc == 5
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert re.search(r"item '\w+' is outside the CF vocabulary .*run train-align first", err), err



@pytest.mark.parametrize("stage", ["train-proj", "eval"])
def test_an_align_ckpt_of_another_cf_width_asks_for_train_align(chain, tmp_path, stage):
    out_dir = tmp_path / "stale"
    shutil.copytree(chain["out"], out_dir)
    config = tmp_path / "wider.conf"
    text = chain["config"].read_text(encoding="utf-8")
    config.write_text(text.replace("cf.embed_dim = 12", "cf.embed_dim = 16"), encoding="utf-8")
    args = ["--config", str(config), "--out", str(out_dir), "--seed", "0", "--force"]
    assert _run(["train-cf"] + args)[0] == 0
    rc, _, err = _run([stage] + args)
    assert rc == 5
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert re.search(r"align\.ckpt .*\b12\b.*cf\.ckpt is 16 wide; rerun train-align", err), err
    assert not (out_dir / ".lock").exists()


def _cold_world(tmp_path, extra_lines=()):
    """A planted world whose cold users end on items outside the CF
    vocabulary; returns the dataset and the stage arguments."""
    dataset = make_planted_dataset(30, 16, seed=5, n_cold_users=10)
    interactions, catalog = tmp_path / "interactions.tsv", tmp_path / "catalog.tsv"
    write_dataset(dataset, interactions, catalog)
    config = tmp_path / "run.conf"
    _write_config(config, interactions, catalog, extra_lines)
    return dataset, ["--config", str(config), "--out", str(tmp_path / "out"), "--seed", "0"]


def test_eval_and_train_proj_embed_only_the_items_outside_the_cf_vocabulary(
    tmp_path, monkeypatch
):
    dataset, args = _cold_world(tmp_path)
    embedded: dict[str, list[set[str]]] = {}
    stage = None

    def recording_embed_catalog(catalog):
        embedded.setdefault(stage, []).append(set(catalog))
        return embed_catalog(catalog)

    monkeypatch.setattr(fusionrec.cli, "embed_catalog", recording_embed_catalog)
    for stage in ("prepare", "train-cf", "train-align", "cot", "train-proj", "eval"):
        rc, _, err = _run([stage] + args)
        assert rc == 0, (stage, err)
    vocab = set(load_checkpoint(tmp_path / "out" / "cf.ckpt")[1]["items"])
    cold = set(dataset.catalog) - vocab
    assert cold and vocab
    assert embedded == {"train-align": [set(dataset.catalog)], "train-proj": [cold], "eval": [cold]}


def test_a_malformed_embeddings_line_of_a_warm_item_fails_train_proj_and_eval(tmp_path):
    embeddings = tmp_path / "embeddings.tsv"
    dataset, args = _cold_world(tmp_path, [f"data.embeddings = {embeddings}"])
    vectors = embed_catalog(dataset.catalog)
    lines = {item: item + "\t" + " ".join(map(repr, vec.tolist())) + "\n"
             for item, vec in sorted(vectors.items())}
    embeddings.write_text("".join(lines.values()), encoding="utf-8")
    for stage in ("prepare", "train-cf", "train-align", "cot"):
        rc, _, err = _run([stage] + args)
        assert rc == 0, (stage, err)
    warm = load_checkpoint(tmp_path / "out" / "cf.ckpt")[1]["items"][0]
    lines[warm] = lines[warm].rsplit(" ", 1)[0] + "\n"  # 767 values
    embeddings.write_text("".join(lines.values()), encoding="utf-8")
    lineno = list(lines).index(warm) + 1
    for stage in ("train-proj", "eval"):
        rc, _, err = _run([stage] + args)
        assert rc == 3, (stage, err)
        assert err == f"error: embeddings line {lineno}: expected 768 values, got 767\n", stage


def test_report_gives_the_hr_gap_at_the_largest_cutoff(chain):
    # the chain evaluates eval.ks = 1, 5
    payload = json.loads((chain["out"] / "report_coldwarm.json").read_text(encoding="utf-8"))
    expected = (
        f"warm n={payload['warm']['n_users']}, cold n={payload['cold']['n_users']}; "
        f"hr@5 gap {payload['gap']['hr']['5']}\n"
    )
    assert expected in (chain["out"] / "report.txt").read_text(encoding="utf-8")


def test_eval_scores_the_explainer_against_references(chain, tmp_path):
    out_dir = tmp_path / "explained"
    shutil.copytree(chain["out"], out_dir)
    split = json.loads((out_dir / "split.json").read_text(encoding="utf-8"))
    # the fixed sentence eval explains every pick with, for the explained item
    references = tmp_path / "references.tsv"
    references.write_text(
        "".join(
            f"{user}\t{item}\tThe target item fits the user's recent history. "
            f"likelihood unknown for {item}.\n"
            for user, item in sorted(split["test"].items())
        ),
        encoding="utf-8",
    )
    config = tmp_path / "explained.conf"
    _write_config(config, chain["interactions"], chain["catalog"], [f"data.references = {references}"])
    rc, _, err = _run(["eval", "--config", str(config), "--out", str(out_dir), "--seed", "0", "--force"])
    assert rc == 0, err
    report = json.loads((out_dir / "report_standard.json").read_text(encoding="utf-8"))
    assert report["bleu4"] == report["rouge1"] == report["rougeL"] == 1.0


def test_readme_stage_table_mirrors_the_stage_table():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = [line.split("|")[1:4] for line in fh if line.startswith("| ")][2:]  # no header

    def names(text: str) -> tuple[str, ...]:
        return tuple(re.findall(r"`([^`]+)`", text))

    table = {}
    for stage, reads, writes in rows:
        needs, _, uses = reads.partition("(+")  # "(+ ...)" lists what is read when present
        table[stage.strip()] = (names(needs), names(uses), names(writes))
    assert table == {
        name: (stage.needs, stage.uses, stage.writes) for name, stage in STAGES.items()
    }


def test_unknown_config_key_fails_fast(chain, tmp_path):
    config = tmp_path / "bad.conf"
    _write_config(config, chain["interactions"], chain["catalog"], ["cf.bogus = 3"])
    rc, _, err = _run(["prepare", "--config", str(config), "--out", str(tmp_path / "o"), "--seed", "0"])
    assert rc == 2
    assert "unknown config key" in err
    assert "bad.conf" in err


def test_a_key_given_twice_is_one_config_error_line(chain, tmp_path):
    config = tmp_path / "twice.conf"
    _write_config(config, chain["interactions"], chain["catalog"])
    with open(config, "a", encoding="utf-8") as fh:
        fh.write("cf.embed_dim = 16\n")
    rc, _, err = _run(["prepare", "--config", str(config), "--out", str(tmp_path / "o"), "--seed", "0"])
    assert rc == 2
    assert err == f"error: config key 'cf.embed_dim' given twice in {config}, at lines 7 and 24\n"
    assert not (tmp_path / "o").exists()


def test_removed_negative_sampling_key_is_a_config_error(chain, tmp_path):
    config = tmp_path / "old.conf"
    _write_config(config, chain["interactions"], chain["catalog"], ["cf.negatives_per_positive = 1"])
    rc, _, err = _run(["prepare", "--config", str(config), "--out", str(tmp_path / "o"), "--seed", "0"])
    assert rc == 2
    assert err.startswith("error: unknown config key 'cf.negatives_per_positive'")
    assert err.count("\n") == 1


def test_heads_that_do_not_divide_the_embedding_are_one_config_error_line(chain, tmp_path):
    config = tmp_path / "heads.conf"
    _write_config(config, chain["interactions"], chain["catalog"],
                  ["cf.embed_dim = 50", "cf.heads = 3"])
    for stage in _STAGES:
        rc, _, err = _run([stage, "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2, stage
        assert err == "error: cf.heads: 3 does not divide cf.embed_dim 50\n", stage


def test_a_non_finite_learning_rate_is_one_config_error_line(chain, tmp_path):
    config = tmp_path / "nan.conf"
    _write_config(config, chain["interactions"], chain["catalog"], ["cf.learning_rate = nan"])
    rc, _, err = _run(["prepare", "--config", str(config), "--out", str(tmp_path / "o"), "--seed", "0"])
    assert rc == 2
    assert err == "error: cf.learning_rate: must be finite, got nan\n"


@pytest.mark.parametrize(
    "extra, seed, message",
    [([], "-1", "--seed: must be >= 0, got -1"), (["seed = -3"], None, "seed: must be >= 0, got -3")],
    ids=["flag", "config"],
)
def test_a_negative_seed_is_one_config_error_line_before_any_write(
    chain, tmp_path, extra, seed, message
):
    config = tmp_path / "seed.conf"
    _write_config(config, chain["interactions"], chain["catalog"], extra)
    out_dir = tmp_path / "o"
    argv = ["prepare", "--config", str(config), "--out", str(out_dir)]
    rc, _, err = _run(argv + (["--seed", seed] if seed else []))
    assert rc == 2
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


# Each data.* path key and a stage that reads the file it names.
_INPUT_READERS = {
    "data.interactions": "prepare",
    "data.catalog": "prepare",
    "data.embeddings": "train-align",
    "data.cot_fixture": "cot",
    "data.references": "eval",
}


def _make_directory(path):
    path.mkdir()
    return path


def _make_not_utf8(path):
    path.write_bytes(b"seed = 0\n# caf\xe9\n")
    return path


def _make_plain_file(path):
    path.write_text("", encoding="utf-8")
    return path


@pytest.mark.parametrize("make", [_make_directory, _make_not_utf8], ids=["directory", "not-utf8"])
@pytest.mark.parametrize("key, stage", _INPUT_READERS.items(), ids=list(_INPUT_READERS))
def test_an_unreadable_input_file_is_one_error_line_and_exit_3(chain, tmp_path, key, stage, make):
    path = make(tmp_path / "input")
    config = tmp_path / "run.conf"
    _write_config(config, chain["interactions"], chain["catalog"], [f"{key} = {path}"])
    out_dir = tmp_path / "out"
    shutil.copytree(chain["out"], out_dir)
    rc, _, err = _run([stage, "--config", str(config), "--out", str(out_dir), "--force"])
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err


@pytest.mark.parametrize(
    "flag, make",
    [
        ("--config", lambda path: path),
        ("--config", _make_directory),
        ("--config", _make_not_utf8),
        ("--out", _make_plain_file),
        ("--out", lambda path: _make_plain_file(path) / "sub"),
    ],
    ids=["config-missing", "config-directory", "config-not-utf8", "out-is-a-file", "out-under-a-file"],
)
def test_an_unusable_config_or_out_path_is_one_error_line_and_exit_2(chain, tmp_path, flag, make):
    path = make(tmp_path / "given")
    args = {"--config": str(chain["config"]), "--out": str(tmp_path / "out"), flag: str(path)}
    rc, _, err = _run(["prepare", "--config", args["--config"], "--out", args["--out"]])
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err


def test_prepare_requires_an_interactions_path(tmp_path):
    config = tmp_path / "empty.conf"
    config.write_text("seed = 0\n", encoding="utf-8")
    rc, _, err = _run(["prepare", "--config", str(config), "--out", str(tmp_path / "o"), "--seed", "0"])
    assert rc == 2
    assert "data.interactions: path is required for prepare" in err


def test_prepare_requires_a_catalog_path(chain, tmp_path):
    config = tmp_path / "no-catalog.conf"
    config.write_text(f"data.interactions = {chain['interactions']}\n", encoding="utf-8")
    rc, _, err = _run(["prepare", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert err == "error: data.catalog: path is required for prepare\n"


@pytest.mark.parametrize("stage", ["train-align", "cot", "train-proj", "eval"])
def test_a_stage_without_a_catalog_path_names_it_in_one_message(chain, tmp_path, stage):
    lines = chain["config"].read_text(encoding="utf-8").splitlines(keepends=True)
    config = tmp_path / "no-catalog.conf"
    config.write_text("".join(line for line in lines if not line.startswith("data.catalog")),
                      encoding="utf-8")
    out_dir = tmp_path / "out"
    shutil.copytree(chain["out"], out_dir)
    rc, _, err = _run([stage, "--config", str(config), "--out", str(out_dir), "--force"])
    assert rc == 2
    assert err == "error: data.catalog: path is required for this stage\n"


def test_train_proj_parses_the_catalog_once(chain, tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    shutil.copytree(chain["out"], out_dir)
    parsed = []
    load_catalog = fusionrec.cli.load_catalog
    monkeypatch.setattr(fusionrec.cli, "load_catalog",
                        lambda path: parsed.append(path) or load_catalog(path))
    rc, _, err = _run(["train-proj", "--config", str(chain["config"]), "--out", str(out_dir),
                       "--seed", "0", "--force"])
    assert rc == 0, err
    assert parsed == [str(chain["catalog"])]


# user, item, timestamp: u2's b and a tie at 5, u1 returns to a, u6 has too
# few events, and x's removal takes u5 below the floor too.
_GOLDEN_EVENTS = [
    ("u1", "a", 1), ("u1", "b", 2), ("u1", "c", 3), ("u1", "a", 4),
    ("u2", "b", 5), ("u2", "a", 5), ("u2", "c", 6), ("u2", "d", 7),
    ("u3", "c", 1), ("u3", "d", 2), ("u3", "e", 3), ("u3", "b", 4),
    ("u4", "d", 1), ("u4", "e", 2), ("u4", "a", 3),
    ("u5", "a", 1), ("u5", "x", 2), ("u5", "b", 3),
    ("u6", "e", 1), ("u6", "b", 2),
]


def test_prepare_writes_the_hand_computed_split_and_partition(tmp_path):
    catalog = tmp_path / "catalog.tsv"
    catalog.write_text("".join(f"{q}\tTitle {q}\tText {q}\n" for q in "abcdefx"), encoding="utf-8")
    interactions = tmp_path / "interactions.tsv"
    interactions.write_text(
        "".join(f"{u}\t{q}\t{t}\t4.0\n" for u, q, t in _GOLDEN_EVENTS), encoding="utf-8"
    )
    config = tmp_path / "run.conf"
    config.write_text(
        f"data.interactions = {interactions}\ndata.catalog = {catalog}\n"
        "data.min_user_events = 3\ndata.min_item_popularity = 2\neval.fraction = 0.4\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "o"
    rc, _, err = _run(["prepare", "--config", str(config), "--out", str(out_dir), "--seed", "0"])
    assert rc == 0, err
    split = json.loads((out_dir / "split.json").read_text(encoding="utf-8"))
    assert split["train"] == {"u1": ["a", "b"], "u2": ["a", "b"], "u3": ["c", "d"], "u4": ["d"]}
    assert split["validation"] == {"u1": "c", "u2": "c", "u3": "e", "u4": "e"}
    assert split["test"] == {"u1": "a", "u2": "d", "u3": "b", "u4": "a"}
    partition = json.loads((out_dir / "partition.json").read_text(encoding="utf-8"))
    # b, c and d tie at 3 across both band edges; the item id breaks the ties
    assert partition["warm"] == ["a", "b"]
    assert partition["cold"] == ["d", "e"]
    assert partition["frequency"] == {"a": 4, "b": 3, "c": 3, "d": 3, "e": 2}


def test_a_catalog_id_given_twice_is_one_data_error_line(chain, tmp_path):
    lines = chain["catalog"].read_text(encoding="utf-8").splitlines(keepends=True)
    second = 2 + next(n for n, line in enumerate(lines) if line.startswith("a00\t"))
    catalog = tmp_path / "catalog.tsv"
    catalog.write_text("a00\tAnother title\tanother text\n" + "".join(lines), encoding="utf-8")
    config = tmp_path / "run.conf"
    _write_config(config, chain["interactions"], catalog)
    out_dir = tmp_path / "o"
    rc, _, err = _run(["prepare", "--config", str(config), "--out", str(out_dir), "--seed", "0"])
    assert rc == 3
    assert err == f"error: id 'a00' given twice in catalog file {catalog}, at lines 1 and {second}\n"
    assert not (out_dir / "split.json").exists()


def test_uncataloged_item_is_a_data_error(tmp_path):
    catalog = tmp_path / "catalog.tsv"
    catalog.write_text("q1\tAlpha\tfirst\n", encoding="utf-8")
    interactions = tmp_path / "interactions.tsv"
    interactions.write_text("u1\tq1\t1\t5.0\nu1\tq9\t2\t5.0\n", encoding="utf-8")
    config = tmp_path / "run.conf"
    config.write_text(
        f"data.interactions = {interactions}\ndata.catalog = {catalog}\n", encoding="utf-8"
    )
    rc, _, err = _run(["prepare", "--config", str(config), "--out", str(tmp_path / "o"), "--seed", "0"])
    assert rc == 3
    assert err.startswith("error: ")


def test_train_cf_without_a_two_item_train_region_is_a_data_error(tmp_path):
    catalog = tmp_path / "catalog.tsv"
    catalog.write_text("".join(f"q{i}\tTitle {i}\tText {i}\n" for i in range(4)), encoding="utf-8")
    interactions = tmp_path / "interactions.tsv"
    # three events per user: one train item, then validation and test
    interactions.write_text(
        "".join(f"u{u}\tq{(u + t) % 4}\t{t}\t5.0\n" for u in range(4) for t in range(3)),
        encoding="utf-8",
    )
    config = tmp_path / "run.conf"
    config.write_text(
        f"data.interactions = {interactions}\ndata.catalog = {catalog}\n"
        "data.min_user_events = 3\ndata.min_item_popularity = 1\n",
        encoding="utf-8",
    )
    out_dir = str(tmp_path / "o")
    assert _run(["prepare", "--config", str(config), "--out", out_dir])[0] == 0
    rc, _, err = _run(["train-cf", "--config", str(config), "--out", out_dir])
    assert rc == 3
    assert err == "error: no user has two train items; nothing to train the CF model on\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_exits_with_training_code(chain, tmp_path):
    config = tmp_path / "diverge.conf"
    _write_config(
        config,
        chain["interactions"],
        chain["catalog"],
        ["cf.learning_rate = 1e15", "cf.optimizer = sgd"],
    )
    out_dir = tmp_path / "o"
    rc, _, err = _run(["prepare", "--config", str(config), "--out", str(out_dir), "--seed", "0"])
    assert rc == 0, err
    rc, _, err = _run(["train-cf", "--config", str(config), "--out", str(out_dir), "--seed", "0"])
    assert rc == 4
    assert "non-finite" in err
    assert not (out_dir / ".lock").exists()


def test_chain_reruns_byte_identical(chain, tmp_path):
    out_dir = tmp_path / "run2"
    results = _run_chain(chain["config"], out_dir)
    for stage in _STAGES:
        assert results[stage][0] == 0, results[stage][2]
    first = sorted(os.listdir(chain["out"]))
    second = sorted(os.listdir(out_dir))
    assert first == second
    for name in first:
        assert (chain["out"] / name).read_bytes() == (out_dir / name).read_bytes(), name


def test_seed_flag_overrides_the_config(chain, tmp_path):
    out_dir = tmp_path / "seeded"
    args = ["--config", str(chain["config"]), "--out", str(out_dir), "--seed", "1"]
    assert _run(["prepare"] + args)[0] == 0
    assert _run(["train-cf"] + args)[0] == 0
    with open(chain["out"] / "split.json", encoding="utf-8") as fh:
        base = json.load(fh)
    with open(out_dir / "split.json", encoding="utf-8") as fh:
        other = json.load(fh)
    assert other["meta"]["seed"] == 1
    base.pop("meta")
    other.pop("meta")
    assert base == other
    assert (chain["out"] / "cf.ckpt").read_bytes() != (out_dir / "cf.ckpt").read_bytes()


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])
