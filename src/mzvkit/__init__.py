"""mzvkit: exact word algebra, 2-poset integrals and truncated t-series
for multiple zeta values, plus a numeric verification engine.

The package is organised in layers:

* :mod:`mzvkit.linear` - finite linear combinations: the one sparse
  "dict of coefficients" base of every container, and truncated series.
* :mod:`mzvkit.indexes` - the formal vector space on indices, the one
  star map on whole combinations and the sums ``s_m``, cyclic
  classes, the exact index identities and the cyclic-sum combinations
  that the word and numeric checks evaluate.
* :mod:`mzvkit.polys` - packed words over {x, y} and the polynomials
  over them, sparse (``NcPoly``) and dense per grade (``GradedPoly``).
* :mod:`mzvkit.words` - the shuffle and harmonic products, the shuffle
  regularisation, sigma and ``s_map`` (y*sigma(tail), the word form of
  star expansion).
* :mod:`mzvkit.posets` - labeled 2-posets, admissibility, the
  linear-extension word map and the star words ``w_star``, cached
  there.
* :mod:`mzvkit.tseries` - truncated t-series of word polynomials, the
  two-sided star series and its poset oracle, and the exact cyclic-sum
  expansions.
* :mod:`mzvkit.regularize` - the one table of the two products, H1 =
  H0[y] decompositions (shuffle in closed form, harmonic peeled against
  one y-power), symbolic and numeric T-polynomials and the rho maps.
* :mod:`mzvkit.numeval` - admissible values by Hölder convolution, the
  regularised per-index values V(k) in one cache, the t-adic series
  variants and numeric verification of the cyclic sum formulas.
* :mod:`mzvkit.reports` - ``Report`` rows and the ``ExactCheck`` outcome
  of every exact identity check.
* :mod:`mzvkit.cli` - the verification command line (`mzvkit --suite ...`).
"""

from .indexes import (
    CyclicClass,
    IndexCombo,
    all_cyclic_classes,
    cyclic_classes,
    cyclic_symmetrized_s_m,
    indices_up_to,
    s_m,
    star_expand,
    star_invert,
    verify_index_identity,
)
from .numeval import (
    EvalConfig,
    NumericSeries,
    NumericValue,
    mzv_num,
    raw_partial_sum,
    verify_csf,
    z_num,
    z_reg_num,
    zeta_hat_num,
)
from .polys import NcPoly, index_of_word, word, word_of_index
from .posets import TwoPoset, disjoint_union, is_admissible, w_map, w_star, x_star
from .regularize import (
    NumericPolyT,
    RegPolynomial,
    a_coeffs,
    compare_star_regs,
    decompose,
    reg_T,
    rho_apply,
    verify_reg_relation,
)
from .reports import ExactCheck, Report
from .tseries import (
    WordSeries,
    abc_split,
    f_series,
    verify_class_csf_hat,
    verify_csf_hat,
    w_csf,
    w_csf_hat,
    w_star_hat,
    x_star_hat,
)
from .words import harmonic, s_map, shuffle, sigma

__all__ = [
    "CyclicClass",
    "EvalConfig",
    "ExactCheck",
    "IndexCombo",
    "NcPoly",
    "NumericPolyT",
    "NumericSeries",
    "NumericValue",
    "RegPolynomial",
    "Report",
    "TwoPoset",
    "WordSeries",
    "a_coeffs",
    "abc_split",
    "all_cyclic_classes",
    "compare_star_regs",
    "cyclic_classes",
    "cyclic_symmetrized_s_m",
    "decompose",
    "disjoint_union",
    "f_series",
    "harmonic",
    "index_of_word",
    "indices_up_to",
    "is_admissible",
    "mzv_num",
    "raw_partial_sum",
    "reg_T",
    "rho_apply",
    "s_m",
    "s_map",
    "shuffle",
    "sigma",
    "star_expand",
    "star_invert",
    "verify_class_csf_hat",
    "verify_csf",
    "verify_csf_hat",
    "verify_index_identity",
    "verify_reg_relation",
    "w_csf",
    "w_csf_hat",
    "w_map",
    "w_star",
    "w_star_hat",
    "word",
    "word_of_index",
    "x_star",
    "x_star_hat",
    "z_num",
    "z_reg_num",
    "zeta_hat_num",
]

__version__ = "0.1.0"
