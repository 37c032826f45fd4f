"""Temporally-consistent instance segmentation metrics and 4D scan tooling."""

from .model import (AmbiguousGroup, ChangeType, GroundTruthAnnotation,
                    InstanceMask, SequencePointCloud, StageCloud, Violation,
                    validate_sequence)
from .geometry import (DEFAULT_RESOLUTION, FeatureHierarchy, VoxelGrid4D,
                       build_feature_hierarchy, downsample_level,
                       nearest_neighbor_labels, pool_features_to_voxels,
                       pool_superpoint_features, voxelize)
from .curves import (Curve, ScheduleMix, SerializationDims, SerializationPattern,
                     decode_keys, encode_keys, make_schedule, serialize_sequence)
from .metrics import (DEFAULT_THRESHOLDS, SWEEP_THRESHOLDS, DisambiguationResult,
                      EvaluationReport, IoUProfile, assign_ambiguous_components,
                      average_precision, disambiguate, evaluate,
                      resolve_prediction_overlaps, t_iou)
from .association import associate_geometric, associate_semantic
from .numerics import (AssignmentCostConfig, AssignmentResult, RelationMatrix,
                       assignment_cost, binarize_masks, contrastive_loss,
                       fourier_features_4d, gaussian_projection_matrix,
                       log_odds_similarity, relation_from_instance_ids,
                       solve_assignment, st_pool_masks)
from .synth import (ChangeOp, IdentityPolicy, PerturbationError,
                    PerturbationSpec, SceneGenerationError, SceneRecipe,
                    generate, perturb)
from .ply import PlyError, PlyFormatError, PlyMissingPropertyError, read_ply, write_ply
from .formats import (FormatError, PredictionFileContent, read_manifest,
                      read_predictions, report_to_dict, rle_decode, rle_encode,
                      write_manifest, write_predictions)

__version__ = "0.1.0"
