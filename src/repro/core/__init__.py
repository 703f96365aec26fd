"""Bismarck core: IGD-as-a-UDA, visit orders (shuffles and sampling), parallelism, convergence."""

from .convergence import (
    AnyOf,
    EpochRecord,
    FixedEpochs,
    ObjectiveThreshold,
    RelativeImprovement,
    StoppingRule,
    ToleranceToOptimum,
    make_stopping_rule,
)
from .batching import BatchSchedule, make_batch_schedule
from .driver import BismarckRunner, IGDConfig, IGDResult, train, train_in_memory
from .model import Model
from .ordering import (
    ClusteredOrder,
    MultiplexedReservoir,
    OrderingPolicy,
    ReservoirSampler,
    ShuffleAlways,
    ShuffleOnce,
    Subsample,
    make_ordering,
)
from .parallel import PureUDAParallelism, SharedMemoryParallelism
from .proximal import (
    BoxProjection,
    ComposedProximal,
    IdentityProximal,
    L1Proximal,
    L2BallProjection,
    L2Proximal,
    ProximalOperator,
    SimplexProjection,
    project_to_simplex,
)
from .stepsize import (
    ConstantStepSize,
    DiminishingStepSize,
    EpochDecayStepSize,
    GeometricStepSize,
    StepSizeSchedule,
    make_schedule,
)
from .uda import AccuracyAggregate, IGDAggregate, IGDState, LossAggregate

__all__ = [
    "AccuracyAggregate",
    "AnyOf",
    "BatchSchedule",
    "BismarckRunner",
    "make_batch_schedule",
    "BoxProjection",
    "ClusteredOrder",
    "ComposedProximal",
    "ConstantStepSize",
    "DiminishingStepSize",
    "EpochDecayStepSize",
    "EpochRecord",
    "FixedEpochs",
    "GeometricStepSize",
    "IGDAggregate",
    "IGDConfig",
    "IGDResult",
    "IGDState",
    "IdentityProximal",
    "L1Proximal",
    "L2BallProjection",
    "L2Proximal",
    "LossAggregate",
    "Model",
    "MultiplexedReservoir",
    "ObjectiveThreshold",
    "OrderingPolicy",
    "ProximalOperator",
    "PureUDAParallelism",
    "RelativeImprovement",
    "ReservoirSampler",
    "SharedMemoryParallelism",
    "ShuffleAlways",
    "ShuffleOnce",
    "SimplexProjection",
    "StepSizeSchedule",
    "StoppingRule",
    "Subsample",
    "ToleranceToOptimum",
    "make_ordering",
    "make_schedule",
    "make_stopping_rule",
    "project_to_simplex",
    "train",
    "train_in_memory",
]
