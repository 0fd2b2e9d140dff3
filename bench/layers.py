"""Which program functions the traced run wraps, and the per-layer metrics.

`LAYER_METRICS` lists every per-layer metric with its unit, better
direction and the wrapped targets it is derived from; `BENCHMARK.json`
carries the same names. A metric whose target is missing is not reported.
"""

from __future__ import annotations

import os

STAGES = ("prepare", "train-cf", "train-align", "cot", "train-proj", "eval", "sweep", "report")
TRAINING_STAGES = ("train-cf", "train-align", "train-proj")

_CF_LOSS = "cf.training_loss_and_gradients"
_ADAM, _SGD = "optim.Adam.step", "optim.Sgd.step"
_EMBED = "semantic.fallback_embed"
_SPLIT = "evaluate.evaluate_split"
_POOL = "evaluate.RecommendationPipeline.rank_pool"
_SAVE, _LOAD = "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"

# (name, unit, better, targets)
LAYER_METRICS: list[tuple[str, str, str, tuple[str, ...]]] = [
    *(
        (f"cli.{stage}.{kind}", "s", "lower", ())
        for stage in STAGES
        for kind in ("wall_s", "cpu_s")
    ),
    ("data.build_training_instances_s", "s", "lower", ("data.build_training_instances",)),
    ("data.training_instances", "count", "lower", ("data.build_training_instances",)),
    ("cf.train_cf_s", "s", "lower", ("cf.train_cf",)),
    ("cf.loss_grad_calls", "count", "lower", (_CF_LOSS,)),
    ("cf.loss_grad_s", "s", "lower", (_CF_LOSS,)),
    ("cf.padded_positions", "count", "lower", (_CF_LOSS,)),
    ("cf.real_positions", "count", "lower", (_CF_LOSS,)),
    ("cf.position_fill", "ratio", "higher", (_CF_LOSS,)),
    ("cf.instances_per_s", "1/s", "higher", ("cf.train_cf",)),
    ("cf.user_representation_calls", "count", "lower", ("cf.user_representation",)),
    ("cf.user_representation_s", "s", "lower", ("cf.user_representation",)),
    ("cf.rep_from_vectors_calls", "count", "lower", ("cf.user_representation_from_vectors",)),
    ("cf.rep_from_vectors_s", "s", "lower", ("cf.user_representation_from_vectors",)),
    ("cf.next_item_probabilities_s", "s", "lower", ("cf.next_item_probabilities",)),
    ("cf.rank_by_score_s", "s", "lower", ("cf.rank_by_score",)),
    *(
        (f"optim.{stage}.{kind}", unit, "lower", (_ADAM, _SGD))
        for stage in TRAINING_STAGES
        for kind, unit in (("step_calls", "count"), ("step_s", "s"))
    ),
    ("semantic.fallback_embed_calls", "count", "lower", (_EMBED,)),
    ("semantic.fallback_embed_s", "s", "lower", (_EMBED,)),
    ("semantic.tokens_embedded", "count", "lower", (_EMBED,)),
    ("semantic.embed_catalog_s", "s", "lower", ("semantic.embed_catalog",)),
    ("align.build_alignment_dataset_s", "s", "lower", ("align.build_alignment_dataset",)),
    ("align.examples", "count", "lower", ("align.build_alignment_dataset",)),
    ("align.loss_grad_calls", "count", "lower", ("align.total_loss_and_gradients",)),
    ("align.loss_grad_s", "s", "lower", ("align.total_loss_and_gradients",)),
    ("align.unified_item_embedding_calls", "count", "lower", ("align.unified_item_embedding",)),
    ("align.unified_item_embedding_s", "s", "lower", ("align.unified_item_embedding",)),
    ("cot.traces", "count", "higher", ("cot.score_cot",)),
    ("cot.traces_per_s", "1/s", "higher", ("cot.score_cot",)),
    ("cot.build_instruction_instance_s", "s", "lower", ("cot.build_instruction_instance",)),
    ("cot.generate_cot_s", "s", "lower", ("cot.generate_cot",)),
    ("cot.score_cot_s", "s", "lower", ("cot.score_cot",)),
    (
        "projection.build_projection_examples_s",
        "s",
        "lower",
        ("projection.build_projection_examples",),
    ),
    ("projection.examples", "count", "lower", ("projection.build_projection_examples",)),
    ("projection.train_projections_s", "s", "lower", ("projection.train_projections",)),
    ("projection.examples_per_s", "1/s", "higher", ("projection.train_projections",)),
    ("evaluate.users", "count", "higher", (_SPLIT,)),
    ("evaluate.users_per_s", "1/s", "higher", (_SPLIT,)),
    ("evaluate.evaluate_split_s", "s", "lower", (_SPLIT,)),
    ("evaluate.rank_pool_s", "s", "lower", (_POOL,)),
    ("evaluate.user_vector_s", "s", "lower", ("evaluate.RecommendationPipeline.user_vector",)),
    ("evaluate.item_vector_calls", "count", "lower", ("evaluate.RecommendationPipeline.item_vector",)),
    ("evaluate.item_vector_s", "s", "lower", ("evaluate.RecommendationPipeline.item_vector",)),
    ("evaluate.pool_items", "count", "lower", (_POOL,)),
    ("evaluate.pool_shortfalls", "count", "lower", (_POOL,)),
    ("evaluate.collaborative_lookups", "count", "lower", (_SPLIT,)),
    ("evaluate.semantic_lookups", "count", "higher", (_SPLIT,)),
    ("checkpoint.save_calls", "count", "lower", (_SAVE,)),
    ("checkpoint.save_s", "s", "lower", (_SAVE,)),
    ("checkpoint.bytes_written", "B", "lower", (_SAVE,)),
    ("checkpoint.load_calls", "count", "lower", (_LOAD,)),
    ("checkpoint.load_s", "s", "lower", (_LOAD,)),
    ("checkpoint.bytes_read", "B", "lower", (_LOAD,)),
    ("trace.overhead_s", "s", "lower", ()),
]

UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}


def _count_positions(tracer, args, result) -> None:
    max_history = args["config"].max_history
    lengths = [min(len(inst.history), max_history) for inst in args["instances"]]
    tracer.counters["cf.padded_positions"] += len(lengths) * max(lengths)
    tracer.counters["cf.real_positions"] += sum(lengths)


def _count_cf_instances(tracer, args, result) -> None:
    tracer.counters["cf.instances_trained"] += len(args["instances"]) * len(result.training_log)


def _count_length(key: str):
    def count(tracer, args, result) -> None:
        tracer.counters[key] += len(result)

    return count


def _count_tokens(tracer, args, result) -> None:
    tracer.counters["semantic.tokens_embedded"] += len(args["text"].split())


def _count_projection(tracer, args, result) -> None:
    tracer.counters["projection.examples_trained"] += len(args["dataset"]) * args["epochs"]


def _count_pool(pool_size: int):
    def count(tracer, args, result) -> None:
        pool = args["pool"]
        tracer.counters["evaluate.pool_items"] += len(pool)
        tracer.counters["evaluate.pool_shortfalls"] += len(pool) < pool_size

    return count


def _count_eval():
    """Users ranked, and each pipeline's routing lookups since its last read."""
    seen_by_pipeline: dict[int, dict[str, int]] = {}

    def count(tracer, args, result) -> None:
        tracer.counters["evaluate.users"] += result.n_users
        pipeline = args["pipeline"]
        seen = seen_by_pipeline.setdefault(id(pipeline), {})
        for path, key in (
            ("collaborative_path", "evaluate.collaborative_lookups"),
            ("semantic_path", "evaluate.semantic_lookups"),
        ):
            now = pipeline.routing.get(path, 0)
            tracer.counters[key] += now - seen.get(path, 0)
            seen[path] = now

    return count


def _count_bytes(key: str):
    def count(tracer, args, result) -> None:
        tracer.counters[key] += os.path.getsize(args["path"])

    return count


def install(tracer, pool_size: int) -> None:
    """Wrap every target; call after `fusionrec.cli` is imported."""
    f = tracer.wrap_function
    f("data", "build_training_instances", "data.build_training_instances",
      _count_length("data.training_instances"))
    f("cf", "train_cf", "cf.train_cf", _count_cf_instances)
    f("cf", "training_loss_and_gradients", _CF_LOSS, _count_positions)
    for name in ("user_representation", "user_representation_from_vectors",
                 "next_item_probabilities", "rank_by_score"):
        f("cf", name, f"cf.{name}")
    f("semantic", "fallback_embed", _EMBED, _count_tokens)
    f("semantic", "embed_catalog", "semantic.embed_catalog")
    f("align", "build_alignment_dataset", "align.build_alignment_dataset",
      _count_length("align.examples"))
    f("align", "total_loss_and_gradients", "align.total_loss_and_gradients")
    f("align", "unified_item_embedding", "align.unified_item_embedding")
    for name in ("build_instruction_instance", "generate_cot", "score_cot"):
        f("cot", name, f"cot.{name}")
    f("projection", "build_projection_examples", "projection.build_projection_examples",
      _count_length("projection.examples"))
    f("projection", "train_projections", "projection.train_projections", _count_projection)
    f("evaluate", "evaluate_split", _SPLIT, _count_eval())
    f("checkpoint", "save_checkpoint", _SAVE, _count_bytes("checkpoint.bytes_written"))
    f("checkpoint", "load_checkpoint", _LOAD, _count_bytes("checkpoint.bytes_read"))
    m = tracer.wrap_method
    m("evaluate", "RecommendationPipeline", "rank_pool", _POOL, _count_pool(pool_size))
    m("evaluate", "RecommendationPipeline", "user_vector", "evaluate.RecommendationPipeline.user_vector")
    m("evaluate", "RecommendationPipeline", "item_vector", "evaluate.RecommendationPipeline.item_vector")
    m("optim", "Adam", "step", _ADAM)
    m("optim", "Sgd", "step", _SGD)


def layer_metrics(tracer, stage_cpu: dict[str, float]) -> dict[str, float]:
    """Per-layer values from the spans and counters of one traced chain."""
    spans = tracer.summary()
    counters = tracer.counters

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def seconds(name: str) -> float:
        return spans.get(name, {}).get("s", 0.0)

    def rate(count: float, span_seconds: float) -> float:
        return count / span_seconds if span_seconds > 0 else 0.0

    values: dict[str, float] = {}
    for stage in STAGES:
        values[f"cli.{stage}.wall_s"] = seconds(f"cli.{stage}")
        values[f"cli.{stage}.cpu_s"] = stage_cpu.get(stage, 0.0)
    values.update({
        "data.build_training_instances_s": seconds("data.build_training_instances"),
        "data.training_instances": counters["data.training_instances"],
        "cf.train_cf_s": seconds("cf.train_cf"),
        "cf.loss_grad_calls": calls(_CF_LOSS),
        "cf.loss_grad_s": seconds(_CF_LOSS),
        "cf.padded_positions": counters["cf.padded_positions"],
        "cf.real_positions": counters["cf.real_positions"],
        "cf.position_fill": rate(counters["cf.real_positions"], counters["cf.padded_positions"]),
        "cf.instances_per_s": rate(counters["cf.instances_trained"], seconds("cf.train_cf")),
        "cf.user_representation_calls": calls("cf.user_representation"),
        "cf.user_representation_s": seconds("cf.user_representation"),
        "cf.rep_from_vectors_calls": calls("cf.user_representation_from_vectors"),
        "cf.rep_from_vectors_s": seconds("cf.user_representation_from_vectors"),
        "cf.next_item_probabilities_s": seconds("cf.next_item_probabilities"),
        "cf.rank_by_score_s": seconds("cf.rank_by_score"),
    })
    steps = {}
    for name in (_ADAM, _SGD):
        for root, (n, s) in tracer.seconds_by_root(name).items():
            prev_n, prev_s = steps.get(root, (0, 0.0))
            steps[root] = (prev_n + n, prev_s + s)
    for stage in TRAINING_STAGES:
        n, s = steps.get(f"cli.{stage}", (0, 0.0))
        values[f"optim.{stage}.step_calls"] = n
        values[f"optim.{stage}.step_s"] = s
    values.update({
        "semantic.fallback_embed_calls": calls(_EMBED),
        "semantic.fallback_embed_s": seconds(_EMBED),
        "semantic.tokens_embedded": counters["semantic.tokens_embedded"],
        "semantic.embed_catalog_s": seconds("semantic.embed_catalog"),
        "align.build_alignment_dataset_s": seconds("align.build_alignment_dataset"),
        "align.examples": counters["align.examples"],
        "align.loss_grad_calls": calls("align.total_loss_and_gradients"),
        "align.loss_grad_s": seconds("align.total_loss_and_gradients"),
        "align.unified_item_embedding_calls": calls("align.unified_item_embedding"),
        "align.unified_item_embedding_s": seconds("align.unified_item_embedding"),
        "cot.traces": calls("cot.score_cot"),
        "cot.traces_per_s": rate(calls("cot.score_cot"), seconds("cli.cot")),
        "cot.build_instruction_instance_s": seconds("cot.build_instruction_instance"),
        "cot.generate_cot_s": seconds("cot.generate_cot"),
        "cot.score_cot_s": seconds("cot.score_cot"),
        "projection.build_projection_examples_s": seconds("projection.build_projection_examples"),
        "projection.examples": counters["projection.examples"],
        "projection.train_projections_s": seconds("projection.train_projections"),
        "projection.examples_per_s": rate(
            counters["projection.examples_trained"], seconds("projection.train_projections")
        ),
        "evaluate.users": counters["evaluate.users"],
        "evaluate.users_per_s": rate(counters["evaluate.users"], seconds(_SPLIT)),
        "evaluate.evaluate_split_s": seconds(_SPLIT),
        "evaluate.rank_pool_s": seconds(_POOL),
        "evaluate.user_vector_s": seconds("evaluate.RecommendationPipeline.user_vector"),
        "evaluate.item_vector_calls": calls("evaluate.RecommendationPipeline.item_vector"),
        "evaluate.item_vector_s": seconds("evaluate.RecommendationPipeline.item_vector"),
        "evaluate.pool_items": counters["evaluate.pool_items"],
        "evaluate.pool_shortfalls": counters["evaluate.pool_shortfalls"],
        "evaluate.collaborative_lookups": counters["evaluate.collaborative_lookups"],
        "evaluate.semantic_lookups": counters["evaluate.semantic_lookups"],
        "checkpoint.save_calls": calls(_SAVE),
        "checkpoint.save_s": seconds(_SAVE),
        "checkpoint.bytes_written": counters["checkpoint.bytes_written"],
        "checkpoint.load_calls": calls(_LOAD),
        "checkpoint.load_s": seconds(_LOAD),
        "checkpoint.bytes_read": counters["checkpoint.bytes_read"],
    })
    missing = set(tracer.missing)
    return {
        name: values[name]
        for name, _, _, targets in LAYER_METRICS
        if name in values and not missing.intersection(targets)
    }
