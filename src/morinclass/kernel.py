"""The term-arithmetic kernel used by `Polynomial` (pure Python)."""

from ._termops_py import (
    add_terms,
    diff_terms,
    eval_terms,
    mul_terms,
    neg_terms,
    pow_terms,
    scale_terms,
    sub_terms,
    truncate_terms,
)

KERNEL = "python"
