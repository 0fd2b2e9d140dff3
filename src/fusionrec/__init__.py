"""Sequential recommendation with unified collaborative-semantic item
representations, scored reasoning traces, and a soft-prompt ranking head."""

from .align import (
    AlignmentBatch,
    AlignmentDataset,
    AlignmentNetwork,
    build_alignment_dataset,
    decode,
    encode,
    init_alignment,
    stack_alignment_dataset,
    train_alignment,
    unified_item_embedding,
)
from .cf import (
    CfConfig,
    CfModel,
    next_item_probabilities,
    rank_by_score,
    train_cf,
    user_representation,
    user_representation_from_vectors,
    user_representations,
    user_representations_from_vectors,
    verbalize_prior,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, default_config, make_config, parse_config
from .cot import (
    CotRecord,
    FixtureAdapter,
    InstructionInstance,
    build_instruction_instance,
    composite_score,
    filter_cots,
    generate_cot,
    score_cot,
    score_coherence,
    score_semantic_dimension,
    threshold_sweep,
)
from .data import (
    ColdWarmPartition,
    InteractionLog,
    SplitDataset,
    TrainingSequence,
    build_sequences,
    build_training_instances,
    filter_dataset,
    leave_one_out_split,
    load_catalog,
    load_interactions,
    partition_cold_warm,
)
from .errors import (
    ConfigError,
    DataError,
    DependencyError,
    FusionrecError,
    TrainingError,
)
from .evaluate import (
    CohortComparison,
    ItemTable,
    MetricReport,
    PoolRanker,
    RecommendationPipeline,
    cold_warm_report,
    evaluate_split,
    zero_shot_eval,
)
from .metrics import bleu, rouge
from .projection import (
    CotSignal,
    ProjectionStack,
    PromptBundle,
    SurrogateHead,
    UserContext,
    assemble_prompt,
    build_projection_examples,
    build_vocabulary,
    init_projection_stack,
    make_surrogate_head,
    project_components,
    rank_candidates,
    request_explanation,
    train_projections,
)
from .semantic import embed_catalog, fallback_embed, load_embeddings, similarity

__version__ = "0.1.0"
