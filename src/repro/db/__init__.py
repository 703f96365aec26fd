"""In-memory RDBMS substrate for the Bismarck reproduction.

The package provides the database features the paper relies on:

* heap tables with clustering/shuffling (:mod:`repro.db.table`),
* a mini-SQL layer (:mod:`repro.db.parser`, :mod:`repro.db.executor`),
* user-defined aggregates with the standard ``initialize / transition /
  terminate`` (+ ``merge``) contract (:mod:`repro.db.aggregates`),
* a simulated shared-memory facility (:mod:`repro.db.shared_memory`),
* a single-node engine (:mod:`repro.db.engine`) and a segmented parallel
  engine (:mod:`repro.db.parallel`).
"""

from .aggregates import (
    AggregateRegistry,
    FunctionalAggregate,
    NullAggregate,
    UserDefinedAggregate,
)
from .engine import Database, connect
from .checkpoint import (
    CheckpointManager,
    RecoveryReport,
    TrainingState,
    recover_database,
)
from .errors import (
    CatalogError,
    DatabaseError,
    DuplicateTableError,
    EnvSpecError,
    ExecutionError,
    ParseError,
    SchemaError,
    SharedMemoryError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownFunctionError,
    UnknownTableError,
    WorkerDiedError,
)
from .fault import (
    COMPUTE_OPS,
    CRASH_OPS,
    CrashInjector,
    CrashPlan,
    FaultInjected,
    FaultPlan,
    crashes_from_env,
    faults_from_env,
    parse_crash_spec,
    parse_fault_spec,
)
from .wal import DurabilityPolicy, WriteAheadLog, read_wal
from .chunk_plan import ChunkPlan, partition_round_robin, resolve_ordinals, split_round_robin
from .executor import QueryResult
from .parallel import ParallelAggregateResult, SegmentedDatabase
from .pass_plan import (
    PASS_KINDS,
    ExecutionBackend,
    PassPlan,
    ProcessBackend,
    SegmentedBackend,
    SerialBackend,
    SharedMemoryBackend,
    TrainEpochContext,
    compile_pass,
    epoch_backend,
    evaluation_backend,
)
from .process_backend import (
    ProcessWorkerPool,
    available_cores,
    run_process_shared_memory_epoch,
)
from .supervisor import (
    DegradationEvent,
    RecoveryEvent,
    RecoveryPolicy,
    SupervisedWorkerPool,
)
from .shared_memory import (
    SHARED_MEMORY_SCHEMES,
    SharedMemoryArena,
    SharedMemoryParallelism,
    SharedSegment,
    run_shared_memory_epoch,
)
from .table import Table
from .types import Column, ColumnType, Row, Schema, SparseVector

__all__ = [
    "AggregateRegistry",
    "CatalogError",
    "ChunkPlan",
    "ExecutionBackend",
    "PASS_KINDS",
    "PassPlan",
    "ProcessBackend",
    "SegmentedBackend",
    "SerialBackend",
    "SharedMemoryBackend",
    "TrainEpochContext",
    "compile_pass",
    "epoch_backend",
    "evaluation_backend",
    "resolve_ordinals",
    "split_round_robin",
    "COMPUTE_OPS",
    "CRASH_OPS",
    "CheckpointManager",
    "Column",
    "CrashInjector",
    "CrashPlan",
    "ColumnType",
    "DegradationEvent",
    "Database",
    "DatabaseError",
    "DuplicateTableError",
    "DurabilityPolicy",
    "EnvSpecError",
    "ExecutionError",
    "FaultInjected",
    "FaultPlan",
    "FunctionalAggregate",
    "NullAggregate",
    "ParallelAggregateResult",
    "ParseError",
    "ProcessWorkerPool",
    "QueryResult",
    "RecoveryEvent",
    "RecoveryPolicy",
    "RecoveryReport",
    "Row",
    "SHARED_MEMORY_SCHEMES",
    "Schema",
    "SchemaError",
    "SegmentedDatabase",
    "SharedMemoryArena",
    "SharedMemoryError",
    "SharedMemoryParallelism",
    "SharedSegment",
    "SparseVector",
    "SupervisedWorkerPool",
    "Table",
    "TrainingState",
    "TypeMismatchError",
    "UnknownColumnError",
    "UnknownFunctionError",
    "UnknownTableError",
    "WorkerDiedError",
    "WriteAheadLog",
    "available_cores",
    "connect",
    "crashes_from_env",
    "faults_from_env",
    "parse_crash_spec",
    "parse_fault_spec",
    "partition_round_robin",
    "recover_database",
    "read_wal",
    "run_process_shared_memory_epoch",
    "run_shared_memory_epoch",
]
