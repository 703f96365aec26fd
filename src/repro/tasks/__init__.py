"""Analytics tasks expressible as incremental gradient descent (Figure 1B)."""

from .base import (
    LinearModelTask,
    SupervisedExample,
    Task,
    dot_product,
    scale_and_add,
)
from .crf import ConditionalRandomFieldTask, SequenceExample
from .kalman import KalmanSmoothingTask, ObservationExample
from .lasso import LassoTask
from .least_squares import (
    LinearRegressionTask,
    OneDimensionalLeastSquares,
    catx_closed_form_final,
    catx_closed_form_iterates,
)
from .logistic_regression import LogisticRegressionTask, log1p_exp, sigmoid
from .matrix_factorization import LowRankMatrixFactorizationTask, RatingExample
from .portfolio import PortfolioOptimizationTask, ReturnSample
from .registry import create_task, is_registered, register_task, task_names, unregister_task
from .svm import SVMTask

__all__ = [
    "ConditionalRandomFieldTask",
    "KalmanSmoothingTask",
    "LassoTask",
    "LinearModelTask",
    "LinearRegressionTask",
    "LogisticRegressionTask",
    "LowRankMatrixFactorizationTask",
    "ObservationExample",
    "OneDimensionalLeastSquares",
    "PortfolioOptimizationTask",
    "RatingExample",
    "ReturnSample",
    "SVMTask",
    "SequenceExample",
    "SupervisedExample",
    "Task",
    "catx_closed_form_final",
    "catx_closed_form_iterates",
    "create_task",
    "dot_product",
    "is_registered",
    "log1p_exp",
    "register_task",
    "scale_and_add",
    "sigmoid",
    "task_names",
    "unregister_task",
]
