"""Age estimation from dense GLOH descriptors.

Pipeline: PGM loading -> dense log-polar gradient-orientation histograms
-> multi-task (l2,1) sparse bin selection -> per-gender ridge regression
-> leave-one-person-out evaluation with MAE and cumulative scores.
"""

from . import dataset, errors, featfile, gloh, metrics, mtl, pgm, pipeline, ridge

__version__ = "0.1.0"
