"""Wearable physiology pipeline: E4 ingestion, EDA decomposition, windowed
features, boosted-tree classification under leave-one-participant-out
cross-validation, and run-merging label smoothing."""

__version__ = "0.1.0"
