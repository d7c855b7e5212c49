"""skillpack — checkpoint deltas, module-aware compression, routed fusion.

Extract the parameter difference between a tuned and a base checkpoint,
compress it per module class (magnitude pruning for embedding/head,
quantized truncated SVD for MLP and attention, dense passthrough for the
rest) into a portable .skpk file, and compose any number of such packs
back onto the untouched base. Grafted packs unload exactly, because the
base is never mutated.
"""

from .checkpoints import (
    Checkpoint,
    DeltaMap,
    apply_pack,
    diff,
    load_checkpoint,
    load_delta,
    save_checkpoint,
    save_delta,
)
from .classify import ClassificationManifest, ModuleClass, classify, default_manifest
from .compress import compress_delta, compress_entry
from .errors import CompatibilityError, FormatError, IntegrityError, SkillPackError
from .losses import PreferenceScores, dpo_loss, sft_nll
from .packs import (
    DenseEntry,
    PrunedSparseEntry,
    QuantizedSvdEntry,
    SkillPack,
    StorageStats,
    inspect_pack,
    load_pack,
    pack_stats,
    predict_stats,
    save_pack,
    storage_ratio,
)
from .plans import (
    BitGroup,
    CompressionPlan,
    DenseStrategy,
    PruneStrategy,
    SvdQuantStrategy,
    default_plan,
    plan_from_dict,
    plan_to_dict,
)
from .quantize import QuantizedMatrix, quantize_gptq, quantize_rtn
from .routing import (
    Features,
    FusionRequest,
    LinearClassifier,
    RouterTrainingSet,
    Tag,
    TaskTable,
    fuse,
    instantiate_task,
    load_router,
    route,
    save_router,
    train_router,
)
from .tensors import (
    SvdFactors,
    frobenius_rel_err,
    magnitude_prune,
    svd,
    truncate,
)
from .toy import (
    DeltaRecipe, RetentionReport, ToySpec, budget_plan, eval_retention, gen_toy, retention_sweep, toy_forward)

__version__ = "0.1.0"
