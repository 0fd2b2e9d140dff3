"""Command-line pipeline runner.

Subcommands chain the full system over file artifacts in one output
directory: prepare -> train-cf -> train-align -> cot -> train-proj -> eval,
plus sweep and report. Every stage writes atomically (temp file + rename),
refuses to overwrite existing outputs unless --force is given, takes a lock
on the output directory (breaking one whose recorded pid no longer exists),
and embeds the config digest and master seed in its artifacts. Per-stage randomness is derived from the master seed with a fixed
per-stage offset, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from .align import (
    AlignmentNetwork,
    UnifiedEmbedding,
    build_alignment_dataset,
    init_alignment,
    train_alignment,
    unified_item_embedding,
)
from .cf import (
    CfConfig,
    CfModel,
    item_probabilities,
    rank_by_score,
    train_cf,
    user_representations,
    verbalize_prior,
)
from .checkpoint import atomic_open, load_checkpoint, load_checkpoint_header, save_checkpoint
from .config import RunConfig, default_config, parse_config
from .cot import (
    CotRecord,
    FixtureAdapter,
    build_instruction_instance,
    filter_cots,
    generate_cot,
    load_cot_fixture,
    render_sweep_report,
    score_cot,
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
)
from .errors import ConfigError, DataError, DependencyError, FusionrecError
from .evaluate import (
    RecommendationPipeline,
    cold_warm_report,
    evaluate_split,
    render_metric_table,
    report_to_json,
)
from .projection import (
    CotSignal,
    PromptBundle,
    build_projection_examples,
    build_vocabulary,
    init_projection_stack,
    load_explanation_fixture,
    make_surrogate_head,
    request_explanation,
    train_projections,
)
from .semantic import SEMANTIC_DIM, embed_catalog, fallback_embed, load_embeddings

_STAGE_OFFSETS = {
    "train-cf": 1,
    "train-align": 2,
    "cot": 3,
    "train-proj": 4,
    "head": 5,
    "eval": 6,
}


def _stage_rng(seed: int, stage: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _STAGE_OFFSETS[stage]])))


def _stage_seed_int(seed: int, stage: str) -> int:
    return int(np.random.SeedSequence([seed, _STAGE_OFFSETS[stage]]).generate_state(1)[0])


def _lock_is_stale(lock: str) -> bool:
    """True when the lock file names a pid that no longer exists.

    Unreadable or unparsable content, and a pid we may not signal, count as
    held: only a lock whose owner is known to be gone is broken.
    """
    try:
        with open(lock, encoding="ascii") as fh:
            pid = int(fh.read().strip())
    except FileNotFoundError:
        return True  # released between our attempt and this read
    except (OSError, ValueError):
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, but owned by another user
        return False
    return False


@contextlib.contextmanager
def _output_lock(out_dir: str):
    lock = os.path.join(out_dir, ".lock")
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    try:
        fd = os.open(lock, flags)
    except FileExistsError:
        fd = None
        if _lock_is_stale(lock):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(lock)
            with contextlib.suppress(FileExistsError):
                fd = os.open(lock, flags)
        if fd is None:
            raise DependencyError(
                f"output directory is locked ({lock}); another stage is running "
                "or a previous one crashed"
            ) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        os.close(fd)
        yield
    finally:
        os.unlink(lock)


def _write_atomic(path: str, data: str) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(data)


@contextlib.contextmanager
def _artifact_fields(path: str):
    """Turn a missing or malformed field of a parsed artifact into a DataError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: missing or malformed field ({type(exc).__name__}: {exc})") from None


def _load_json(path: str):
    """Parse a JSON artifact; an undecodable file is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt JSON artifact ({type(exc).__name__}: {exc})") from None


def _write_json(path: str, obj) -> None:
    _write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _refuse_overwrite(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise ConfigError(f"refusing to overwrite {path}; pass --force to allow it")


def _require_artifact(out_dir: str, filename: str, producing_stage: str, stage: str) -> str:
    path = os.path.join(out_dir, filename)
    if not os.path.exists(path):
        raise DependencyError(f"{stage} requires {filename}; run {producing_stage} first")
    return path


def _load_split(out_dir: str, stage: str) -> SplitDataset:
    path = _require_artifact(out_dir, "split.json", "prepare", stage)
    payload = _load_json(path)
    with _artifact_fields(path):
        return SplitDataset(
            train=payload["train"], validation=payload["validation"], test=payload["test"]
        )


def _load_cf(out_dir: str, stage: str) -> CfModel:
    path = _require_artifact(out_dir, "cf.ckpt", "train-cf", stage)
    kind, meta, arrays = load_checkpoint(path)
    if kind != "cf":
        raise DataError(f"{path} holds a {kind!r} checkpoint, expected cf")
    with _artifact_fields(path):
        items = list(meta["items"])
        return CfModel(
            config=CfConfig(**meta["config"]),
            item_index={item: i + 1 for i, item in enumerate(items)},
            items=items,
            params=arrays,
            frozen=True,
            training_log=list(meta.get("training_log", [])),
        )


def _load_align(out_dir: str, stage: str) -> AlignmentNetwork:
    path = _require_artifact(out_dir, "align.ckpt", "train-align", stage)
    kind, meta, arrays = load_checkpoint(path)
    if kind != "align":
        raise DataError(f"{path} holds a {kind!r} checkpoint, expected align")
    with _artifact_fields(path):
        return AlignmentNetwork(
            collab_dim=meta["collab_dim"],
            sem_dim=meta["sem_dim"],
            latent_dim=meta["latent_dim"],
            alpha=meta["alpha"],
            beta=meta["beta"],
            params=arrays,
            training_log=list(meta.get("training_log", [])),
        )


def _semantic_map(config: RunConfig) -> dict[str, np.ndarray]:
    embeddings_path = config.get("data.embeddings")
    if embeddings_path:
        return load_embeddings(embeddings_path)
    catalog_path = config.get("data.catalog")
    if not catalog_path:
        raise ConfigError("data.catalog: required when data.embeddings is not set")
    return embed_catalog(load_catalog(catalog_path))


def _catalog(config: RunConfig) -> dict[str, tuple[str, str]]:
    catalog_path = config.get("data.catalog")
    if not catalog_path:
        raise ConfigError("data.catalog: path is required for this stage")
    return load_catalog(catalog_path)


def cmd_prepare(config: RunConfig, out_dir: str, seed: int, force: bool) -> None:
    interactions = config.get("data.interactions")
    if not interactions:
        raise ConfigError("data.interactions: path is required for prepare")
    log = load_interactions(interactions, config.get("data.catalog"))
    filtered = filter_dataset(
        log,
        min_user_events=config.get("data.min_user_events"),
        min_item_popularity=config.get("data.min_item_popularity"),
    )
    sequences = build_sequences(filtered)
    split = leave_one_out_split(sequences)
    partition = partition_cold_warm(filtered, fraction=config.get("eval.fraction"))

    split_path = os.path.join(out_dir, "split.json")
    partition_path = os.path.join(out_dir, "partition.json")
    for path in (split_path, partition_path):
        _refuse_overwrite(path, force)
    meta = {"config_digest": config.digest(), "seed": seed}
    _write_json(
        split_path,
        {
            "train": {u: split.train[u] for u in sorted(split.train)},
            "validation": dict(sorted(split.validation.items())),
            "test": dict(sorted(split.test.items())),
            "meta": meta,
        },
    )
    _write_json(
        partition_path,
        {
            "cold": sorted(partition.cold),
            "warm": sorted(partition.warm),
            "frequency": dict(sorted(partition.frequency.items())),
            "meta": meta,
        },
    )
    print(
        f"prepared {len(split.train)} users, {len(split.item_universe())} items, "
        f"{len(filtered.events)} events; cold={len(partition.cold)} warm={len(partition.warm)}"
    )


def cmd_train_cf(config: RunConfig, out_dir: str, seed: int, force: bool) -> None:
    split = _load_split(out_dir, "train-cf")
    ckpt_path = os.path.join(out_dir, "cf.ckpt")
    _refuse_overwrite(ckpt_path, force)
    rng = _stage_rng(seed, "train-cf")
    instances = build_training_instances(split, config.get("cf.max_history"))
    if not instances:
        raise DataError("no user has two train items; nothing to train the CF model on")
    model = train_cf(instances, config.cf_config(), rng)
    meta = {
        "config": vars(config.cf_config()),
        "items": model.items,
        "training_log": model.training_log,
        "config_digest": config.digest(),
        "seed": seed,
    }
    save_checkpoint(ckpt_path, "cf", meta, model.params)
    print(
        f"trained cf on {len(instances)} sequences "
        f"({sum(len(inst.history) for inst in instances)} positions), {len(model.items)} items; "
        f"final epoch loss {model.training_log[-1]:.6f}"
    )


def cmd_train_align(config: RunConfig, out_dir: str, seed: int, force: bool) -> None:
    split = _load_split(out_dir, "train-align")
    model = _load_cf(out_dir, "train-align")
    ckpt_path = os.path.join(out_dir, "align.ckpt")
    _refuse_overwrite(ckpt_path, force)
    semantic_map = _semantic_map(config)
    rng = _stage_rng(seed, "train-align")
    dataset = build_alignment_dataset(
        model,
        split,
        semantic_map,
        rng=rng,
        negatives_per_user=config.get("align.negatives_per_user"),
    )
    net = init_alignment(
        collab_dim=model.config.embed_dim,
        sem_dim=SEMANTIC_DIM,
        latent_dim=config.get("align.latent_dim"),
        alpha=config.get("align.alpha"),
        beta=config.get("align.beta"),
        rng=rng,
    )
    train_alignment(
        net,
        dataset,
        epochs=config.get("align.epochs"),
        batch_size=config.get("align.batch_size"),
        learning_rate=config.get("align.learning_rate"),
        rng=rng,
        optimizer=config.get("align.optimizer"),
    )
    meta = {
        "collab_dim": net.collab_dim,
        "sem_dim": net.sem_dim,
        "latent_dim": net.latent_dim,
        "alpha": net.alpha,
        "beta": net.beta,
        "training_log": net.training_log,
        "config_digest": config.digest(),
        "seed": seed,
    }
    save_checkpoint(ckpt_path, "align", meta, net.params)
    n_users = len(split.users())
    dropped = n_users - len(dataset)
    no_triple = dropped + int(np.count_nonzero(np.diff(dataset.triple_ptr) == 0))
    print(
        f"trained alignment on {len(dataset)} user examples; "
        f"{no_triple} of {n_users} users got no triple, {dropped} dropped; "
        f"trained {len(dataset.live_columns())} of {net.sem_dim} semantic columns; "
        f"final epoch loss {net.training_log[-1]:.6f}"
    )


def cmd_cot(config: RunConfig, out_dir: str, seed: int, force: bool) -> None:
    split = _load_split(out_dir, "cot")
    model = _load_cf(out_dir, "cot")
    out_path = os.path.join(out_dir, "cots.json")
    _refuse_overwrite(out_path, force)
    catalog = _catalog(config)
    fixture_path = config.get("data.cot_fixture")
    adapter = FixtureAdapter(load_cot_fixture(fixture_path) if fixture_path else None)
    rng = _stage_rng(seed, "cot")

    users = split.users()
    sample_size = config.get("cot.sample_size")
    if 0 < sample_size < len(users):
        perm = rng.permutation(len(users))
        users = sorted(users[i] for i in perm[:sample_size])

    weights = config.get("cot.weights")
    warm_histories = {}
    for user in users:
        warm_history = [i for i in split.train[user] if model.has_item(i)]
        if model.has_item(split.validation[user]) and warm_history:
            warm_histories[user] = warm_history
    skipped = len(users) - len(warm_histories)
    reps = user_representations(model, list(warm_histories.values()))
    # The label sentences, and often a trace's closing sentence, recur across
    # traces; a small cache embeds them once per stage.
    embedder = functools.lru_cache(maxsize=64)(fallback_embed)
    records = []
    for (user, warm_history), rep in zip(warm_histories.items(), reps):
        target = split.validation[user]
        probs = item_probabilities(model, rep)
        ranked = rank_by_score(model, probs)
        candidates = [
            (item, catalog[item][0], float(probs[model.item_index[item] - 1]))
            for item in ranked[:3]
            if item in catalog
        ]
        prior = verbalize_prior(float(probs[model.item_index[target] - 1]))
        instance = build_instruction_instance(
            user,
            warm_history,
            target,
            prior,
            catalog,
            k_prompt=config.get("cot.k_prompt"),
            label=1,
            candidates=candidates,
        )
        cot_text = generate_cot(adapter, instance)
        records.append(score_cot(instance, cot_text, embedder=embedder, weights=weights))
    if not records:
        raise DataError("no reasoning traces could be generated (all users skipped)")
    retained, coverage = filter_cots(records, threshold=config.get("cot.threshold"))
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
    _write_json(
        out_path,
        {
            "records": rows,
            "coverage": coverage,
            "threshold": config.get("cot.threshold"),
            "skipped_users": skipped,
            "meta": {"config_digest": config.digest(), "seed": seed},
        },
    )
    print(
        f"scored {len(records)} reasoning traces ({skipped} users skipped); "
        f"retained {len(retained)} (coverage {coverage:.4f})"
    )


def cmd_train_proj(config: RunConfig, out_dir: str, seed: int, force: bool) -> None:
    split = _load_split(out_dir, "train-proj")
    model = _load_cf(out_dir, "train-proj")
    net = _load_align(out_dir, "train-proj")
    ckpt_path = os.path.join(out_dir, "proj.ckpt")
    _refuse_overwrite(ckpt_path, force)
    catalog = _catalog(config)
    semantic_map = _semantic_map(config)

    cot_signals: dict[tuple[str, str], CotSignal] = {}
    cots_path = os.path.join(out_dir, "cots.json")
    if os.path.exists(cots_path):
        payload = _load_json(cots_path)
        with _artifact_fields(cots_path):
            retained = [
                ((row["user"], row["item"]), row["cot"], row["score"])
                for row in payload["records"]
                if row["retained"]
            ]
        for key, cot_text, score in retained:
            cot_signals[key] = CotSignal(embedding=fallback_embed(cot_text), score=score)

    pipeline = RecommendationPipeline(cf_model=model, alignment=net, semantic_map=semantic_map)
    rng = _stage_rng(seed, "train-proj")
    examples = build_projection_examples(
        pipeline,
        split,
        catalog,
        rng=rng,
        slate_size=config.get("proj.slate_size"),
        cot_signals=cot_signals,
    )
    vocabulary = build_vocabulary(catalog)
    head = make_surrogate_head(
        vocabulary, d_token=config.get("proj.d_token"), seed=_stage_seed_int(seed, "head")
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
    arrays = dict(stack.params)
    arrays["head.w_out"] = head.w_out
    arrays["head.b_out"] = head.b_out
    arrays["head.token_emb"] = head.token_emb
    meta = {
        "d_user": stack.d_user,
        "d_item": stack.d_item,
        "d_cot": stack.d_cot,
        "d_token": stack.d_token,
        "hidden": stack.hidden,
        "vocabulary": vocabulary,
        "head_seed": head.seed,
        "training_log": stack.training_log,
        "config_digest": config.digest(),
        "seed": seed,
    }
    save_checkpoint(ckpt_path, "proj", meta, arrays)
    print(
        f"trained projections on {len(examples)} examples "
        f"({len(cot_signals)} with reasoning); final epoch loss {stack.training_log[-1]:.6f}"
    )


def _explanation_hooks(config: RunConfig, model, net, semantic_map):
    references_path = config.get("data.references")
    if not references_path:
        return None, None
    references = load_explanation_fixture(references_path)
    adapter = FixtureAdapter(None)
    latent_dim = net.latent_dim if net is not None else 1

    def explainer(user: str, item: str) -> str:
        prompt = PromptBundle(segments=[("text", "explain the pick")], user=user)
        if net is not None and semantic_map:
            z_item = unified_item_embedding(net, item, model, semantic_map)
        else:
            z_item = UnifiedEmbedding(
                item=item, vector=np.zeros(latent_dim), source="collaborative_path"
            )
        return request_explanation(z_item, None, adapter, prompt, user=user)

    return references, explainer


def cmd_eval(config: RunConfig, out_dir: str, seed: int, force: bool) -> None:
    split = _load_split(out_dir, "eval")
    model = _load_cf(out_dir, "eval")
    standard_path = os.path.join(out_dir, "report_standard.json")
    coldwarm_path = os.path.join(out_dir, "report_coldwarm.json")
    for path in (standard_path, coldwarm_path):
        _refuse_overwrite(path, force)

    net = None
    semantic_map = None
    if os.path.exists(os.path.join(out_dir, "align.ckpt")):
        net = _load_align(out_dir, "eval")
        semantic_map = _semantic_map(config)
    pipeline = RecommendationPipeline(cf_model=model, alignment=net, semantic_map=semantic_map)

    ks = list(config.get("eval.ks"))
    pool_size = config.get("eval.pool_size")
    digest = config.digest()
    eval_seed = _stage_seed_int(seed, "eval")
    references, explainer = _explanation_hooks(config, model, net, semantic_map)

    standard = evaluate_split(
        pipeline,
        split,
        ks,
        candidate_pool_size=pool_size,
        seed=eval_seed,
        protocol="standard",
        config_digest=digest,
        references=references,
        explainer=explainer,
    )
    _write_atomic(standard_path, report_to_json(standard))
    reports = [standard]

    partition_path = os.path.join(out_dir, "partition.json")
    if os.path.exists(partition_path):
        payload = _load_json(partition_path)
        with _artifact_fields(partition_path):
            partition = ColdWarmPartition(
                cold=set(payload["cold"]),
                warm=set(payload["warm"]),
                frequency=payload["frequency"],
            )
        try:
            comparison = cold_warm_report(
                pipeline, split, partition, ks, pool_size, seed=eval_seed, config_digest=digest
            )
        except DataError as exc:
            print(f"cold/warm breakdown skipped: {exc}")
        else:
            _write_json(
                coldwarm_path,
                {
                    "warm": comparison.warm.to_dict(),
                    "cold": comparison.cold.to_dict(),
                    "gap": {
                        metric: {str(k): v for k, v in per_k.items()}
                        for metric, per_k in comparison.gap.items()
                    },
                },
            )
            reports.extend([comparison.warm, comparison.cold])
    print(render_metric_table(reports), end="")


def cmd_sweep(config: RunConfig, out_dir: str, seed: int, force: bool) -> None:
    cots_path = _require_artifact(out_dir, "cots.json", "cot", "sweep")
    sweep_json = os.path.join(out_dir, "sweep.json")
    sweep_txt = os.path.join(out_dir, "sweep.txt")
    for path in (sweep_json, sweep_txt):
        _refuse_overwrite(path, force)
    payload = _load_json(cots_path)
    with _artifact_fields(cots_path):
        records = [
            CotRecord(
                instance=None, cot=row["cot"], dims=tuple(row["dims"]), score=row["score"]
            )
            for row in payload["records"]
        ]
    rows = threshold_sweep(records, list(config.get("cot.sweep")))
    table = render_sweep_report(rows)
    _write_json(
        sweep_json,
        {"rows": rows, "meta": {"config_digest": config.digest(), "seed": seed}},
    )
    _write_atomic(sweep_txt, table)
    print(table, end="")


def cmd_report(config: RunConfig, out_dir: str, seed: int, force: bool) -> None:
    report_path = os.path.join(out_dir, "report.txt")
    _refuse_overwrite(report_path, force)
    lines = [f"config digest: {config.digest()}", f"seed: {seed}", ""]

    def section(title: str, body: str) -> None:
        lines.append(f"== {title} ==")
        lines.append(body.rstrip("\n"))
        lines.append("")

    split_path = os.path.join(out_dir, "split.json")
    if os.path.exists(split_path):
        split_payload = _load_json(split_path)
        with _artifact_fields(split_path):
            section("data", f"users: {len(split_payload['train'])}")
    for name, ckpt in (("cf", "cf.ckpt"), ("alignment", "align.ckpt"), ("projection", "proj.ckpt")):
        path = os.path.join(out_dir, ckpt)
        if os.path.exists(path):
            _, meta = load_checkpoint_header(path)
            with _artifact_fields(path):
                log = meta.get("training_log", [])
                tail = f"final loss {log[-1]:.6f}" if log else "no training log"
            section(name, f"checkpoint {ckpt}; {tail}")
    cots_path = os.path.join(out_dir, "cots.json")
    if os.path.exists(cots_path):
        payload = _load_json(cots_path)
        with _artifact_fields(cots_path):
            section(
                "reasoning traces",
                f"records: {len(payload['records'])}; coverage {payload['coverage']:.4f} "
                f"at threshold {payload['threshold']}",
            )
    standard_path = os.path.join(out_dir, "report_standard.json")
    if os.path.exists(standard_path):
        report = _load_json(standard_path)
        with _artifact_fields(standard_path):
            hr = ", ".join(
                f"hr@{k}={v:.4f}" for k, v in sorted(report["hr"].items(), key=lambda kv: int(kv[0]))
            )
            section("evaluation (standard)", f"n_users={report['n_users']}; {hr}")
    coldwarm_path = os.path.join(out_dir, "report_coldwarm.json")
    if os.path.exists(coldwarm_path):
        payload = _load_json(coldwarm_path)
        with _artifact_fields(coldwarm_path):
            section(
                "evaluation (cold/warm)",
                f"warm n={payload['warm']['n_users']}, cold n={payload['cold']['n_users']}; "
                f"hr@10 gap {payload['gap']['hr'].get('10')}",
            )
    sweep_txt = os.path.join(out_dir, "sweep.txt")
    if os.path.exists(sweep_txt):
        with open(sweep_txt, encoding="utf-8") as fh:
            section("threshold sweep", fh.read())
    body = "\n".join(lines).rstrip("\n") + "\n"
    _write_atomic(report_path, body)
    print(body, end="")


_COMMANDS = {
    "prepare": cmd_prepare,
    "train-cf": cmd_train_cf,
    "train-align": cmd_train_align,
    "cot": cmd_cot,
    "train-proj": cmd_train_proj,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionrec",
        description="Sequential recommender with unified item representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="path to a key = value config file")
        cmd.add_argument("--out", required=True, help="output directory for stage artifacts")
        cmd.add_argument("--seed", type=int, help="master seed (overrides the config)")
        cmd.add_argument(
            "--force", action="store_true", help="overwrite existing stage outputs"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if args.config else default_config()
        seed = args.seed if args.seed is not None else config.get("seed")
        os.makedirs(args.out, exist_ok=True)
        with _output_lock(args.out):
            _COMMANDS[args.command](config, args.out, seed, args.force)
    except FusionrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
