"""Command-line pipeline runner.

Subcommands chain the full system over file artifacts in one output
directory: prepare -> train-cf -> train-align -> cot -> train-proj -> eval,
plus sweep and report. `STAGES` describes each stage once, and one runner
does the rest: it holds an exclusive flock on the output directory (so a
second stage on the same directory is refused, and the kernel frees the lock
when a stage exits, even by a crash), checks the needed artifacts exist,
refuses to overwrite an output unless --force is given, writes each output
atomically (temp file + rename) and removes a declared output the stage did
not produce. The lock uses `fcntl`, so the CLI runs on POSIX systems only.
Artifacts embed the config digest and master seed. Per-stage randomness is
derived from the master seed with a fixed per-stage offset, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import itertools
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .align import (
    AlignmentNetwork,
    build_alignment_dataset,
    init_alignment,
    network_shapes,
    train_alignment,
)
from .cf import (
    FORWARD_ROWS,
    CfConfig,
    CfModel,
    item_probabilities,
    model_shapes,
    top_items,
    train_cf,
    verbalize_prior,
    warm_user_representations,
)
from .checkpoint import atomic_open, load_checkpoint, save_checkpoint
from .config import RunConfig, default_config, parse_config
from .cot import (
    CotRecord,
    FixtureAdapter,
    build_instruction_instance,
    filter_cots,
    generate_cot,
    load_cot_fixture,
    load_explanation_fixture,
    render_sweep_report,
    score_cots,
    threshold_sweep,
)
from .data import (
    ColdWarmPartition,
    SplitDataset,
    build_sequences,
    build_training_instances,
    filter_dataset,
    leave_one_out_split,
    load_catalog,
    load_interactions,
    partition_cold_warm,
    read_text,
)
from .errors import ConfigError, DataError, DependencyError, FusionrecError
from .evaluate import RecommendationPipeline, cold_warm_report, evaluate_split, render_metric_table
from .projection import (
    ProjectionStack,
    PromptBundle,
    build_projection_examples,
    build_vocabulary,
    init_projection_stack,
    make_surrogate_head,
    request_explanation,
    stack_shapes,
    train_projections,
)
from .semantic import SEMANTIC_DIM, SparseVector, embed_catalog, embed_texts, load_embeddings

# Seed offset of the surrogate head that train-proj builds, beside its own stream.
_HEAD_OFFSET = 5


@contextlib.contextmanager
def _output_lock(out_dir: str):
    """Hold an exclusive flock on the output directory while the body runs.

    The kernel releases the lock when its descriptor closes, however the
    holder exits, so a crashed stage leaves nothing behind to break.
    """
    try:
        fd = os.open(out_dir, os.O_RDONLY | os.O_DIRECTORY)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: cannot be opened ({exc.strerror})") from None
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise DependencyError(
                f"output directory is locked ({out_dir}); another stage is running in it"
            ) from None
        except OSError as exc:
            raise ConfigError(f"--out {out_dir}: cannot be locked ({exc.strerror})") from None
        yield
    finally:
        os.close(fd)


# JSON decodes to exact types, so a bool is neither of these.
_NUMBER = {int, float}


def _only(values, types: set, what: str) -> None:
    """Raise a TypeError naming `what` if one of `values` has a type outside `types`."""
    others = set(map(type, values)) - types
    if others:
        raise TypeError(f"{what} holds a value of type {min(t.__name__ for t in others)}")


def _split_from_json(payload) -> SplitDataset:
    split = SplitDataset(
        train=payload["train"], validation=payload["validation"], test=payload["test"]
    )
    _only((split.train, split.validation, split.test), {dict}, "train, validation or test")
    _only(split.train.values(), {list}, "train")
    _only(itertools.chain.from_iterable(split.train.values()), {str}, "a train sequence")
    _only(split.validation.values(), {str}, "validation")
    _only(split.test.values(), {str}, "test")
    if not set(split.train) == set(split.validation) == set(split.test):
        raise ValueError("train, validation and test hold different users")
    return split


@dataclass(frozen=True)
class _Cots:
    """cots.json as one column per record field, then the retained share of
    the records and the threshold that retained them."""

    keys: list[tuple[str, str]]  # (user, item)
    cots: list[str]
    dims: list[list[float]]
    scores: list[float]
    retained: list[bool]
    coverage: float
    threshold: float


def _cots_from_json(payload) -> _Cots:
    rows, coverage, threshold = payload["records"], payload["coverage"], payload["threshold"]
    _only((rows,), {list}, "records")
    _only(rows, {dict}, "records")
    _only((coverage, threshold), _NUMBER, "coverage or threshold")

    def column(name: str, types: set) -> list:
        values = [row[name] for row in rows]
        _only(values, types, f"records' {name}")
        return values

    dims = column("dims", {list})
    _only(itertools.chain.from_iterable(dims), _NUMBER, "records' dims")
    return _Cots(
        keys=list(zip(column("user", {str}), column("item", {str}))),
        cots=column("cot", {str}),
        dims=dims,
        scores=column("score", _NUMBER),
        retained=column("retained", {bool}),
        coverage=coverage,
        threshold=threshold,
    )


def _partition_from_json(payload) -> ColdWarmPartition:
    cold, warm, frequency = payload["cold"], payload["warm"], payload["frequency"]
    _only((cold, warm), {list}, "cold or warm")
    _only(itertools.chain(cold, warm), {str}, "cold or warm")
    _only((frequency,), {dict}, "frequency")
    _only(frequency.values(), {int}, "frequency")
    return ColdWarmPartition(cold=set(cold), warm=set(warm), frequency=frequency)


def _check_arrays(arrays: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise ValueError unless `arrays` holds exactly the named arrays of these
    shapes, each of finite values only."""
    for name in sorted(set(arrays) | set(shapes)):
        found, wanted = (arrays[name].shape if name in arrays else None), shapes.get(name)
        if found != wanted:
            raise ValueError(f"array {name!r}: shape {found} in the file, {wanted} by the header")
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"array {name!r} holds a non-finite value")


def _training_log(meta: dict) -> list:
    """A checkpoint's training log: a list of JSON numbers, empty when absent."""
    log = meta.get("training_log", [])
    _only((log,), {list}, "training_log")
    _only(log, _NUMBER, "training_log")
    return log


def _cf_from_checkpoint(content) -> CfModel:
    meta, arrays = content
    items = list(meta["items"])
    if len(set(items)) != len(items):
        raise ValueError("an item is named twice in items")
    config = CfConfig(**meta["config"])
    _check_arrays(arrays, model_shapes(config, len(items)))
    return CfModel(
        config=config,
        item_index={item: i + 1 for i, item in enumerate(items)},
        items=items,
        params=arrays,
        training_log=_training_log(meta),
    )


# The AlignmentNetwork fields an align.ckpt header holds, beside its training log.
_ALIGN_FIELDS = ("collab_dim", "sem_dim", "latent_dim", "alpha", "beta")


def _align_from_checkpoint(content) -> AlignmentNetwork:
    meta, arrays = content
    fields = {name: meta[name] for name in _ALIGN_FIELDS}
    dims = (fields["collab_dim"], fields["sem_dim"], fields["latent_dim"])
    _check_arrays(arrays, network_shapes(*dims))
    return AlignmentNetwork(**fields, params=arrays, training_log=_training_log(meta))


# The ProjectionStack fields a proj.ckpt header holds, beside its vocabulary,
# head seed and training log.
_PROJ_FIELDS = ("d_user", "d_item", "d_cot", "d_token", "hidden")


def _proj_from_checkpoint(content) -> ProjectionStack:
    """The trained stack; the frozen surrogate head beside it is checked, not kept."""
    meta, arrays = content
    fields = {name: meta[name] for name in _PROJ_FIELDS}
    shapes = stack_shapes(**fields)
    n_tokens, d_token = len(meta["vocabulary"]), fields["d_token"]
    _check_arrays(arrays, {
        **shapes,
        "head.w_out": (n_tokens, d_token),
        "head.b_out": (n_tokens,),
        "head.token_emb": (n_tokens, d_token),
    })
    params = {name: arrays[name] for name in shapes}
    return ProjectionStack(**fields, params=params, training_log=_training_log(meta))


def _coldwarm_line(payload) -> str:
    """Cohort sizes and the hr gap at the largest cutoff evaluated."""
    hr_gap = payload["gap"]["hr"]
    k = max(hr_gap, key=int)
    return (
        f"warm n={payload['warm']['n_users']}, cold n={payload['cold']['n_users']}; "
        f"hr@{k} gap {hr_gap[k]}"
    )


def _standard_line(report) -> str:
    hr = ", ".join(
        f"hr@{k}={v:.4f}" for k, v in sorted(report["hr"].items(), key=lambda kv: int(kv[0]))
    )
    return f"n_users={report['n_users']}; {hr}"


# What `_read` builds from each typed artifact; any other artifact is its
# content. Only `report` reads the eval reports, so theirs is its summary line.
_PARSERS = {
    "split.json": _split_from_json,
    "partition.json": _partition_from_json,
    "cots.json": _cots_from_json,
    "report_standard.json": _standard_line,
    "report_coldwarm.json": _coldwarm_line,
    "cf.ckpt": _cf_from_checkpoint,
    "align.ckpt": _align_from_checkpoint,
    "proj.ckpt": _proj_from_checkpoint,
}


def _read(path: str):
    """Read an artifact by file type, then build it with its `_PARSERS` entry.

    A `.ckpt` file's content is (meta, arrays) of a checkpoint whose kind is
    the file's stem, a `.txt` file's is its text, and any other file's is its
    JSON. Undecodable content, or a field that the parser finds missing or
    malformed, is a DataError naming the file.
    """
    filename = os.path.basename(path)
    stem, ext = os.path.splitext(filename)
    if ext == ".ckpt":
        _, meta, arrays = load_checkpoint(path, stem)
        content = (meta, arrays)
    else:
        text = read_text(path, "artifact")
        try:
            content = text if ext == ".txt" else json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: corrupt artifact ({type(exc).__name__}: {exc})") from None
    parse = _PARSERS.get(filename)
    if parse is None:
        return content
    try:
        return parse(content)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: missing or malformed field ({type(exc).__name__}: {exc})") from None


def _write(path: str, value) -> None:
    """Write one output atomically: a `.ckpt` value (meta, arrays) as a checkpoint
    of the file's stem, a `.txt` value as text, anything else as JSON."""
    stem, ext = os.path.splitext(os.path.basename(path))
    if ext == ".ckpt":
        meta, arrays = value
        save_checkpoint(path, stem, meta, arrays)
        return
    text = value if ext == ".txt" else json.dumps(value, sort_keys=True, indent=2) + "\n"
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@dataclass(frozen=True)
class Stage:
    """One CLI stage.

    `needs` must exist before the stage runs and `uses` are read when
    present. `body(run)` returns {filename: value} for the outputs it
    produced, each one of `writes`; `offset` seeds the stage's random stream.
    """

    needs: tuple[str, ...]
    uses: tuple[str, ...]
    writes: tuple[str, ...]
    offset: int | None
    body: Callable[[_Run], dict]


@dataclass(frozen=True)
class _Run:
    """A stage body's view of one run: the config, the seeds and the artifacts."""

    stage: Stage
    config: RunConfig
    seed: int
    out_dir: str

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stage.offset])

    def seed_int(self, offset: int | None = None) -> int:
        offset = self.stage.offset if offset is None else offset
        return int(np.random.SeedSequence([self.seed, offset]).generate_state(1)[0])

    @property
    def meta(self) -> dict:
        """The config digest and master seed that every artifact embeds."""
        return {"config_digest": self.config.digest(), "seed": self.seed}

    def read(self, filename: str):
        """A declared input read by `_read`, or None when it does not exist."""
        if filename not in self.stage.needs + self.stage.uses:
            raise ValueError(f"{filename} is not a declared input of this stage")
        path = os.path.join(self.out_dir, filename)
        return _read(path) if os.path.exists(path) else None


def _cf_and_alignment(run: _Run) -> tuple[CfModel, AlignmentNetwork | None]:
    """cf.ckpt and align.ckpt (None when absent), checked to be of one width.

    An align.ckpt trained over a cf.ckpt of another `cf.embed_dim` cannot
    encode this model's rows, so it is a stale dependency, not bad data.
    """
    model = run.read("cf.ckpt")
    net = run.read("align.ckpt")
    if net is not None and net.collab_dim != model.config.embed_dim:
        raise DependencyError(
            f"align.ckpt encodes {net.collab_dim}-wide collaborative rows but cf.ckpt is "
            f"{model.config.embed_dim} wide; rerun train-align"
        )
    return model, net


def _catalog(config: RunConfig) -> dict[str, tuple[str, str]]:
    catalog_path = config.get("data.catalog")
    if not catalog_path:
        raise ConfigError("data.catalog: path is required for this stage")
    return load_catalog(catalog_path)


def _semantic_map(
    config: RunConfig, model: CfModel | None = None, catalog: dict | None = None
) -> dict[str, np.ndarray]:
    """Semantic vectors from data.embeddings, or else from the catalog's text;
    `catalog` is the stage's parsed data.catalog, when it has one.

    With a CF model, only the items outside its vocabulary keep a vector:
    `align.unified_item_embedding` reads no other. Every embeddings line is
    still parsed and checked.
    """
    skip = model.item_index if model is not None else ()
    embeddings_path = config.get("data.embeddings")
    if embeddings_path:
        return load_embeddings(embeddings_path, skip)
    catalog = _catalog(config) if catalog is None else catalog
    return embed_catalog({item: text for item, text in catalog.items() if item not in skip})


def _prepare(run: _Run) -> dict:
    config = run.config
    for key in ("data.interactions", "data.catalog"):
        if not config.get(key):
            raise ConfigError(f"{key}: path is required for prepare")
    log = load_interactions(config.get("data.interactions"), config.get("data.catalog"))
    filtered = filter_dataset(
        log,
        min_user_events=config.get("data.min_user_events"),
        min_item_popularity=config.get("data.min_item_popularity"),
    )
    split = leave_one_out_split(build_sequences(filtered))
    partition = partition_cold_warm(filtered, fraction=config.get("eval.fraction"))
    print(
        f"prepared {len(split.train)} users, {len(split.item_universe())} items, "
        f"{len(filtered.events)} events; cold={len(partition.cold)} warm={len(partition.warm)}"
    )
    meta = run.meta
    return {
        "split.json": {
            "train": split.train, "validation": split.validation, "test": split.test, "meta": meta
        },
        "partition.json": {
            "cold": sorted(partition.cold),
            "warm": sorted(partition.warm),
            "frequency": partition.frequency,
            "meta": meta,
        },
    }


def _train_cf(run: _Run) -> dict:
    split = run.read("split.json")
    instances = build_training_instances(split, run.config.get("cf.max_history"))
    if not instances:
        raise DataError("no user has two train items; nothing to train the CF model on")
    model = train_cf(instances, run.config.cf_config(), run.rng())
    print(
        f"trained cf on {len(instances)} sequences "
        f"({sum(len(inst.history) for inst in instances)} positions), {len(model.items)} items; "
        f"final epoch loss {model.training_log[-1]:.6f}"
    )
    meta = {
        "config": vars(run.config.cf_config()),
        "items": model.items,
        "training_log": model.training_log,
        **run.meta,
    }
    return {"cf.ckpt": (meta, model.params)}


def _train_align(run: _Run) -> dict:
    config = run.config
    split = run.read("split.json")
    model = run.read("cf.ckpt")
    rng = run.rng()
    # the dataset copies the semantic rows it needs; the map goes before training
    dataset = build_alignment_dataset(
        model,
        split,
        _semantic_map(config),
        rng=rng,
        negatives_per_user=config.get("align.negatives_per_user"),
    )
    n_users = len(split.users())
    dropped = n_users - len(dataset)
    no_triple = dropped + int(np.count_nonzero(np.diff(dataset.triple_ptr) == 0))
    n_examples, n_live = len(dataset), len(dataset.live_columns())
    net = init_alignment(
        collab_dim=model.config.embed_dim,
        sem_dim=SEMANTIC_DIM,
        latent_dim=config.get("align.latent_dim"),
        alpha=config.get("align.alpha"),
        beta=config.get("align.beta"),
        rng=rng,
    )
    # train_alignment gets the only reference to the dataset, so the
    # full-width semantic rows go once it has cut them to the live columns
    held = [dataset]
    del dataset
    train_alignment(
        net,
        held.pop(),
        epochs=config.get("align.epochs"),
        batch_size=config.get("align.batch_size"),
        learning_rate=config.get("align.learning_rate"),
        rng=rng,
        optimizer=config.get("align.optimizer"),
    )
    print(
        f"trained alignment on {n_examples} user examples; "
        f"{no_triple} of {n_users} users got no triple, {dropped} dropped; "
        f"trained {n_live} of {net.sem_dim} semantic columns; "
        f"final epoch loss {net.training_log[-1]:.6f}"
    )
    meta = {name: getattr(net, name) for name in _ALIGN_FIELDS}
    meta.update(training_log=net.training_log, **run.meta)
    return {"align.ckpt": (meta, net.params)}


def _cot(run: _Run) -> dict:
    config = run.config
    split = run.read("split.json")
    model = run.read("cf.ckpt")
    catalog = _catalog(config)
    fixture_path = config.get("data.cot_fixture")
    adapter = FixtureAdapter(load_cot_fixture(fixture_path) if fixture_path else None)
    rng = run.rng()

    users = split.users()
    sample_size = config.get("cot.sample_size")
    if 0 < sample_size < len(users):
        perm = rng.permutation(len(users))
        users = sorted(users[i] for i in perm[:sample_size])

    weights = config.get("cot.weights")
    warm_histories, reps = warm_user_representations(model, split, users)
    skipped = len(users) - len(warm_histories)
    warm = list(warm_histories.items())
    records = []
    # A chunk of users at a time: one top-k and one scoring pass per chunk,
    # so the probabilities and text vectors held at once stay small.
    for start in range(0, len(warm), FORWARD_ROWS):
        chunk = warm[start : start + FORWARD_ROWS]
        probs = item_probabilities(model, reps[start : start + FORWARD_ROWS])
        instances = []
        for (user, warm_history), user_probs, top in zip(chunk, probs, top_items(model, probs, 3)):
            target = split.validation[user]
            candidates = [
                (item, catalog[item][0], float(user_probs[model.item_index[item] - 1]))
                for item in top
                if item in catalog
            ]
            prior = verbalize_prior(float(user_probs[model.item_index[target] - 1]))
            instances.append(build_instruction_instance(
                user,
                warm_history,
                target,
                prior,
                catalog,
                k_prompt=config.get("cot.k_prompt"),
                label=1,
                candidates=candidates,
            ))
        cots = [generate_cot(adapter, instance) for instance in instances]
        records.extend(score_cots(instances, cots, weights))
    if not records:
        raise DataError("no reasoning traces could be generated (all users skipped)")
    retained, coverage = filter_cots(records, threshold=config.get("cot.threshold"))
    print(
        f"scored {len(records)} reasoning traces ({skipped} users skipped); "
        f"retained {len(retained)} (coverage {coverage:.4f})"
    )
    rows = [
        {
            "user": r.instance.user,
            "item": r.instance.target_item,
            "label": r.instance.label,
            "cot": r.cot,
            "dims": list(r.dims),
            "score": r.score,
            "retained": r.retained,
        }
        for r in sorted(records, key=lambda r: (r.instance.user, r.instance.target_item))
    ]
    return {
        "cots.json": {
            "records": rows,
            "coverage": coverage,
            "threshold": config.get("cot.threshold"),
            "skipped_users": skipped,
            "meta": run.meta,
        }
    }


def _train_proj(run: _Run) -> dict:
    config = run.config
    split = run.read("split.json")
    model, net = _cf_and_alignment(run)
    catalog = _catalog(config)
    semantic_map = _semantic_map(config, model, catalog)
    cots = run.read("cots.json")
    retained = [] if cots is None else [
        (key, cot) for key, cot, kept in zip(cots.keys, cots.cots, cots.retained) if kept
    ]
    del cots  # the parsed columns go before training; only the retained traces stay
    # each embedding holds its nonzero hashed buckets; a batch makes its rows dense
    cot_embeddings = {}
    for start in range(0, len(retained), FORWARD_ROWS):
        chunk = retained[start : start + FORWARD_ROWS]
        vectors = embed_texts([cot_text for _, cot_text in chunk])
        for (key, _), vector in zip(chunk, vectors):
            cot_embeddings[key] = SparseVector(vector)

    pipeline = RecommendationPipeline(cf_model=model, alignment=net, semantic_map=semantic_map)
    rng = run.rng()
    examples = build_projection_examples(
        pipeline,
        split,
        catalog,
        rng=rng,
        slate_size=config.get("proj.slate_size"),
        cot_embeddings=cot_embeddings,
    )
    vocabulary = build_vocabulary(catalog)
    head = make_surrogate_head(
        vocabulary, d_token=config.get("proj.d_token"), seed=run.seed_int(_HEAD_OFFSET)
    )
    stack = init_projection_stack(
        d_user=model.config.embed_dim,
        d_item=net.latent_dim,
        d_cot=SEMANTIC_DIM,
        d_token=config.get("proj.d_token"),
        hidden=config.get("proj.hidden"),
        rng=rng,
    )
    train_projections(
        stack,
        examples,
        epochs=config.get("proj.epochs"),
        batch_size=config.get("proj.batch_size"),
        learning_rate=config.get("proj.learning_rate"),
        head=head,
        rng=rng,
        optimizer=config.get("proj.optimizer"),
    )
    print(
        f"trained projections on {len(examples)} examples "
        f"({len(cot_embeddings)} with reasoning); final epoch loss {stack.training_log[-1]:.6f}"
    )
    arrays = {
        **stack.params,
        "head.w_out": head.w_out,
        "head.b_out": head.b_out,
        "head.token_emb": head.token_emb,
    }
    meta = {name: getattr(stack, name) for name in _PROJ_FIELDS}
    meta.update(vocabulary=vocabulary, head_seed=head.seed, training_log=stack.training_log,
                **run.meta)
    return {"proj.ckpt": (meta, arrays)}


def _explanation_hooks(config: RunConfig):
    references_path = config.get("data.references")
    if not references_path:
        return None, None
    references = load_explanation_fixture(references_path)
    adapter = FixtureAdapter(None)

    def explainer(user: str, item: str) -> str:
        prompt = PromptBundle(segments=[("text", "explain the pick")], user=user)
        return request_explanation(item, adapter, prompt, user=user)

    return references, explainer


def _eval(run: _Run) -> dict:
    config = run.config
    split = run.read("split.json")
    model, net = _cf_and_alignment(run)
    semantic_map = _semantic_map(config, model) if net is not None else None
    pipeline = RecommendationPipeline(cf_model=model, alignment=net, semantic_map=semantic_map)

    references, explainer = _explanation_hooks(config)
    standard = evaluate_split(
        pipeline,
        split,
        list(config.get("eval.ks")),
        candidate_pool_size=config.get("eval.pool_size"),
        seed=run.seed_int(),
        protocol="standard",
        config_digest=config.digest(),
        references=references,
        explainer=explainer,
    )
    outputs = {"report_standard.json": standard.to_dict()}
    reports = [standard]

    partition = run.read("partition.json")
    if partition is not None:
        try:
            comparison = cold_warm_report(standard, split, partition)
        except DataError as exc:
            print(f"cold/warm breakdown skipped: {exc}")
        else:
            outputs["report_coldwarm.json"] = {
                "warm": comparison.warm.to_dict(),
                "cold": comparison.cold.to_dict(),
                "gap": {
                    metric: {str(k): v for k, v in per_k.items()}
                    for metric, per_k in comparison.gap.items()
                },
            }
            reports.extend([comparison.warm, comparison.cold])
    print(render_metric_table(reports), end="")
    return outputs


def _sweep(run: _Run) -> dict:
    cots = run.read("cots.json")
    records = [
        CotRecord(instance=None, cot=cot, dims=tuple(dims), score=score)
        for cot, dims, score in zip(cots.cots, cots.dims, cots.scores)
    ]
    rows = threshold_sweep(records, list(run.config.get("cot.sweep")))
    table = render_sweep_report(rows)
    print(table, end="")
    return {"sweep.json": {"rows": rows, "meta": run.meta}, "sweep.txt": table}


def _report(run: _Run) -> dict:
    lines = [f"config digest: {run.config.digest()}", f"seed: {run.seed}", ""]

    def section(title: str, body: str | None) -> None:
        if body is not None:
            lines.extend([f"== {title} ==", body.rstrip("\n"), ""])

    split = run.read("split.json")
    section("data", None if split is None else f"users: {len(split.train)}")
    for name, ckpt in (("cf", "cf.ckpt"), ("alignment", "align.ckpt"), ("projection", "proj.ckpt")):
        model = run.read(ckpt)
        if model is not None:
            log = model.training_log
            tail = f"final loss {log[-1]:.6f}" if log else "no training log"
            section(name, f"checkpoint {ckpt}; {tail}")
    cots = run.read("cots.json")
    section("reasoning traces", None if cots is None else (
        f"records: {len(cots.keys)}; coverage {cots.coverage:.4f} at threshold {cots.threshold}"
    ))
    section("evaluation (standard)", run.read("report_standard.json"))
    section("evaluation (cold/warm)", run.read("report_coldwarm.json"))
    section("threshold sweep", run.read("sweep.txt"))
    body = "\n".join(lines).rstrip("\n") + "\n"
    print(body, end="")
    return {"report.txt": body}


_REPORTED = (
    "split.json", "cf.ckpt", "align.ckpt", "proj.ckpt", "cots.json",
    "report_standard.json", "report_coldwarm.json", "sweep.txt",
)

STAGES: dict[str, Stage] = {
    "prepare": Stage((), (), ("split.json", "partition.json"), None, _prepare),
    "train-cf": Stage(("split.json",), (), ("cf.ckpt",), 1, _train_cf),
    "train-align": Stage(("split.json", "cf.ckpt"), (), ("align.ckpt",), 2, _train_align),
    "cot": Stage(("split.json", "cf.ckpt"), (), ("cots.json",), 3, _cot),
    "train-proj": Stage(
        ("split.json", "cf.ckpt", "align.ckpt"), ("cots.json",), ("proj.ckpt",), 4, _train_proj
    ),
    "eval": Stage(("split.json", "cf.ckpt"), ("align.ckpt", "partition.json"),
                  ("report_standard.json", "report_coldwarm.json"), 6, _eval),
    "sweep": Stage(("cots.json",), (), ("sweep.json", "sweep.txt"), None, _sweep),
    "report": Stage((), _REPORTED, ("report.txt",), None, _report),
}


def run_stage(name: str, config: RunConfig, out_dir: str, seed: int, force: bool) -> None:
    """Check a stage's inputs and outputs, run its body and write what it returns."""
    stage = STAGES[name]
    for filename in stage.needs:
        if not os.path.exists(os.path.join(out_dir, filename)):
            producer = next(p for p, s in STAGES.items() if filename in s.writes)
            raise DependencyError(f"{name} requires {filename}; run {producer} first")
    paths = {filename: os.path.join(out_dir, filename) for filename in stage.writes}
    for path in paths.values():
        if os.path.exists(path) and not force:
            raise ConfigError(f"refusing to overwrite {path}; pass --force to allow it")
    outputs = stage.body(_Run(stage, config, seed, out_dir))
    for filename, path in paths.items():
        if filename in outputs:
            _write(path, outputs[filename])
        elif os.path.exists(path):
            os.unlink(path)  # left by an earlier run; this one did not produce it


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionrec",
        description="Sequential recommender with unified item representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="path to a key = value config file")
        cmd.add_argument("--out", required=True, help="output directory for stage artifacts")
        cmd.add_argument("--seed", type=int, help="master seed (overrides the config)")
        cmd.add_argument("--force", action="store_true", help="overwrite existing stage outputs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if args.config else default_config()
        seed = args.seed if args.seed is not None else config.get("seed")
        if seed < 0:
            raise ConfigError(f"--seed: must be >= 0, got {seed}")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: cannot be made a directory ({exc.strerror})") from None
        with _output_lock(args.out):
            run_stage(args.command, config, args.out, seed, args.force)
    except FusionrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
