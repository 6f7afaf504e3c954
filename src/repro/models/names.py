"""The eight-model suite's keys, without the models.

``MODEL_ORDER`` fixes the presentation order the paper's figures use
(grouped: embedding-dominated, FC-dominated, attention-based). It lives
apart from :mod:`repro.models.zoo` so that listing the names (the CLI's
``choices=``) imports no model class and no numpy.
"""

from typing import List

__all__ = ["MODEL_ORDER"]

#: Figure ordering used throughout the paper.
MODEL_ORDER: List[str] = ["ncf", "rm1", "rm2", "rm3", "wnd", "mtwnd", "din", "dien"]
