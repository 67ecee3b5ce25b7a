"""Operator latency/memory predictors: analytical, DNN-based and the offline lookup table.

The DNN predictor needs numpy; import it from :mod:`repro.predictor.dnn`.
"""

from repro.predictor.analytical import AnalyticalPredictor, OperatorEstimate
from repro.predictor.lookup import OperatorProfileTable

__all__ = [
    "AnalyticalPredictor",
    "OperatorEstimate",
    "OperatorProfileTable",
]
