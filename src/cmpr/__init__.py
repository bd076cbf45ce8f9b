"""cmpr: desk-scale multi-modal, multi-objective contrastive pretraining.

Pieces: a float64 tape autodiff engine, the contrastive/predictive/
reconstruction loss stack, top-k retrieval metrics, a toy twin-encoder
transformer with checkpoints, and a synthetic longitudinal two-modality
cohort with its four-stream batch scheduler.
"""

__version__ = "0.1.0"
