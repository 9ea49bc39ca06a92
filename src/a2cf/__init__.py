"""Attribute-aware collaborative filtering for personalized, interpretable
substitute recommendation."""

from .config import RunConfig, TrainConfig, build_run_config, parse_config_file
from .data import (Corpus, LexiconEntry, ReviewRecord, SplitTriplets,
                   build_triplets, filter_corpus, load_lexicon, load_prepared,
                   load_reviews, load_substitutes, sample_query_item,
                   save_prepared, split_triplets, write_corpus_manifest)
from .evaluation import (ProtocolReport, atc, evaluate_protocol, hr_at_k,
                         map_attributes, ndcg_at_k, write_metrics_report)
from .interpret import (AttributeAdvantage, InterpretationReport,
                        attribute_advantage, render_interpretation)
from .matrices import build_matrices, item_attr_value, user_attr_value
from .network import (AdamState, ModelParams, adam_step, dropout_mask,
                      init_params, phase1_forward_backward, residual_backward,
                      residual_forward, tanh_rescaled)
from .ranking import (EstimatedMatrices, RankedList, aggregate_attributes,
                      attention, bpr_s_forward_backward,
                      estimate_matrices, recommend_top_k, sample_negatives,
                      score_candidates, score_personalization,
                      score_substitution, triplet_score)
from .synthetic import SyntheticSpec, generate_synthetic
from .training import (TrainResult, load_checkpoint, save_checkpoint,
                       train_pipeline)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AttributeAdvantage", "Corpus", "EstimatedMatrices",
    "InterpretationReport", "LexiconEntry", "ModelParams", "ProtocolReport",
    "RankedList", "ReviewRecord", "RunConfig", "SplitTriplets",
    "SyntheticSpec", "TrainConfig", "TrainResult", "adam_step",
    "aggregate_attributes", "atc", "attention", "attribute_advantage",
    "bpr_s_forward_backward", "build_matrices", "build_run_config",
    "build_triplets", "dropout_mask", "estimate_matrices", "evaluate_protocol",
    "filter_corpus", "generate_synthetic", "hr_at_k", "init_params",
    "item_attr_value", "load_checkpoint", "load_lexicon", "load_prepared",
    "load_reviews", "load_substitutes", "map_attributes", "ndcg_at_k",
    "parse_config_file", "phase1_forward_backward", "recommend_top_k",
    "render_interpretation", "residual_backward", "residual_forward",
    "sample_negatives", "sample_query_item", "save_checkpoint",
    "save_prepared", "score_candidates", "score_personalization",
    "score_substitution", "split_triplets", "tanh_rescaled", "train_pipeline",
    "triplet_score", "user_attr_value", "write_corpus_manifest",
    "write_metrics_report",
]
