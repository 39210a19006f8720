"""Independent numpy references shared by several test modules."""

from fewshot import linalg


def ortho_penalty_np(supports):
    """Tape-free double-loop reference for heads.ortho_penalty (ordered pairs)."""
    total = 0.0
    norms = [linalg.frobenius_norm_sq(s) for s in supports]
    for i, si in enumerate(supports):
        for j, sj in enumerate(supports):
            if i == j:
                continue
            total += linalg.frobenius_norm_sq(si.T @ sj) / (norms[i] * norms[j])
    return total
