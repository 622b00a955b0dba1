"""Action-activity detection via low-rank plus tree-structured-sparse
decomposition of frame differences, with a particle-filter tracker."""

__version__ = "0.1.0"
