"""2-D convolution layer (the paper's CONV), lowered to im2col + GEMM.

The inference GEMM is computed in a *fixed partition* of column tiles
(whole output rows, grouped to at least ``_TILE_COLS`` columns).  BLAS
picks different accumulation orders for different matrix extents, so a
fixed partition is what makes results invariant to how much of the
output is computed at once: a single sample, a stack of B corrupted
samples (``Network.forward_from_batch``), or a partial recomputation of
only the rows a fault can reach (``forward_rows_batch``) all issue GEMM
calls of identical shapes over identical data and therefore produce
bit-identical values.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import DataType
from repro.nn.im2col import (
    _patch_grid,
    col2im,
    col_indices,
    conv_out_size,
    im2col,
    patch_indices,
    window_out_span,
)
from repro.nn.layers.base import MacChain, MacLayer, Shape

__all__ = ["Conv2D"]

#: Minimum output columns per GEMM tile; tiles are whole output rows,
#: grouped from row 0, so any row-aligned recomputation hits the same
#: tile boundaries as the full sweep.
_TILE_COLS = 64


class Conv2D(MacLayer):
    """Multi-channel 2-D convolution with zero padding.

    Args:
        name: Layer name (e.g. ``"conv1"``).
        in_channels: Input fmap channels.
        out_channels: Number of filters / output fmaps.
        kernel: Square kernel extent.
        stride: Window stride.
        pad: Zero padding on each side.
    """

    kind = "conv"

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
    ):
        super().__init__(name)
        if min(in_channels, out_channels, kernel, stride) < 1 or pad < 0:
            raise ValueError(f"{name}: invalid conv geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.weight = np.zeros((out_channels, in_channels, kernel, kernel), dtype=np.float64)
        self.bias = np.zeros(out_channels, dtype=np.float64)

    # -- geometry --------------------------------------------------------- #
    def out_shape(self, in_shape: Shape) -> Shape:
        c, h, w = in_shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} channels, got {c}")
        oh = conv_out_size(h, self.kernel, self.stride, self.pad)
        ow = conv_out_size(w, self.kernel, self.stride, self.pad)
        return (self.out_channels, oh, ow)

    def output_elements(self, in_shape: Shape) -> int:
        c, oh, ow = self.out_shape(in_shape)
        return c * oh * ow

    def chain_length(self, in_shape: Shape) -> int:
        return self.in_channels * self.kernel * self.kernel

    def unravel_output(self, flat_index: int, in_shape: Shape) -> tuple[int, ...]:
        return tuple(int(v) for v in np.unravel_index(flat_index, self.out_shape(in_shape)))

    # -- parameters -------------------------------------------------------- #
    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def weight_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.weight, self.bias

    # -- inference ----------------------------------------------------------- #
    def forward(self, x: np.ndarray, dtype: DataType | None = None) -> np.ndarray:
        w, b = self.quantized_weights(dtype)
        return self.forward_with_weights(x, dtype, w, b)

    def forward_with_weights(
        self,
        x: np.ndarray,
        dtype: DataType | None,
        weight: np.ndarray,
        bias: np.ndarray,
    ) -> np.ndarray:
        _, oh, _ = self.out_shape(x.shape[1:])
        y = self._gemm_rows(x, weight, bias, 0, oh)
        return dtype.quantize(y) if dtype is not None else y

    def _rows_per_tile(self, ow: int) -> int:
        return max(1, _TILE_COLS // ow)

    def _gemm_rows(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray,
        r0: int,
        r1: int,
    ) -> np.ndarray:
        """Float64 GEMM of output rows ``[r0, r1)``; ``r0`` tile-aligned.

        Per-sample GEMM calls over the fixed tile partition: batch
        composition and row-aligned partial recomputation cannot change
        a single output bit (see the module docstring).
        """
        n, c, h, w = x.shape
        xp = (
            np.pad(x, ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad)))
            if self.pad
            else x
        )
        k, i, j, _, ow = col_indices(c, h, w, self.kernel, self.kernel, self.stride, self.pad)
        c0, c1 = r0 * ow, r1 * ow
        cols = xp[:, k, i[:, c0:c1], j[:, c0:c1]]  # (n, c*kh*kw, ncols)
        wmat = weight.reshape(self.out_channels, -1)
        y = np.empty((n, self.out_channels, c1 - c0), dtype=np.float64)
        step = self._rows_per_tile(ow) * ow
        with np.errstate(invalid="ignore", over="ignore"):
            # inf/NaN operands are legal here: corrupted activations
            # propagate through the GEMM like they would through the MACs.
            for s in range(0, c1 - c0, step):
                e = min(s + step, c1 - c0)
                if n == 1:
                    y[0, :, s:e] = wmat @ cols[0, :, s:e]
                else:
                    y[:, :, s:e] = np.matmul(wmat, cols[:, :, s:e])
            y += bias[:, None]
        return y.reshape(n, self.out_channels, r1 - r0, ow)

    def forward_rows_batch(
        self,
        x: np.ndarray,
        dtype: DataType | None,
        spans: list[tuple[int, int]],
    ) -> list[tuple[np.ndarray, int, int]]:
        """Per-sample row-span recomputation, batched tile by tile.

        For each sample ``b`` of ``x`` the requested span ``spans[b]`` is
        expanded to the canonical tile partition, and the returned rows
        equal the same slice of :meth:`forward` on ``x[b:b+1]``, bit for
        bit.  The work is grouped by canonical tile: every tile GEMM
        runs at its fixed ``(K, tile_cols)`` shape over a stack holding
        only the samples whose span covers that tile.  FLOPs stay
        proportional to each sample's own span while the padding /
        index-gather / dispatch overhead is paid per tile instead of per
        sample.

        Args:
            x: Stacked inputs ``(B, c, h, w)``.
            spans: Per-sample requested output row spans (non-empty).

        Returns:
            One ``(y, a0, a1)`` per sample: ``y`` holds the aligned output
            rows ``[a0, a1)``.
        """
        n, c, h, w = x.shape
        _, oh, ow = self.out_shape((c, h, w))
        rpt = self._rows_per_tile(ow)
        weight, bias = self.quantized_weights(dtype)
        wmat = weight.reshape(self.out_channels, -1)
        xp = (
            np.pad(x, ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad)))
            if self.pad
            else x
        )
        k, i, j, _, _ = col_indices(c, h, w, self.kernel, self.kernel, self.stride, self.pad)
        step = rpt * ow
        total = oh * ow
        aligned: list[tuple[int, int]] = []
        bufs: list[np.ndarray] = []
        need: dict[int, list[int]] = {}
        for b, (r0, r1) in enumerate(spans):
            a0 = (r0 // rpt) * rpt
            a1 = min(oh, -(-r1 // rpt) * rpt)
            aligned.append((a0, a1))
            bufs.append(np.empty((self.out_channels, (a1 - a0) * ow), dtype=np.float64))
            for t in range(a0 // rpt, -(-a1 // rpt)):
                need.setdefault(t, []).append(b)
        with np.errstate(invalid="ignore", over="ignore"):
            for t, sel in need.items():
                c0 = t * step
                c1 = min(c0 + step, total)
                sub = xp if len(sel) == n else xp[sel]
                cols = sub[:, k, i[:, c0:c1], j[:, c0:c1]]  # (Bt, K, tc)
                yt = np.matmul(wmat, cols)  # per-slice canonical GEMMs
                yt += bias[:, None]
                for pos, b in enumerate(sel):
                    o0 = c0 - aligned[b][0] * ow
                    bufs[b][:, o0 : o0 + (c1 - c0)] = yt[pos]
        out = []
        for b, (a0, a1) in enumerate(aligned):
            y = bufs[b].reshape(self.out_channels, a1 - a0, ow)
            out.append((dtype.quantize(y) if dtype is not None else y, a0, a1))
        return out

    def out_row_span(self, in_shape: Shape, span: tuple[int, int]) -> tuple[int, int]:
        _, oh, _ = self.out_shape(in_shape)
        return window_out_span(span[0], span[1], self.kernel, self.stride, self.pad, oh)

    # -- training ------------------------------------------------------------- #
    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        cols = im2col(x, self.kernel, self.kernel, self.stride, self.pad)
        n = x.shape[0]
        _, oh, ow = self.out_shape(x.shape[1:])
        wmat = self.weight.reshape(self.out_channels, -1)
        y = (wmat @ cols + self.bias[:, None]).reshape(self.out_channels, n, oh * ow)
        y = y.transpose(1, 0, 2).reshape(n, self.out_channels, oh, ow)
        return y, (x.shape, cols)

    def backward(self, cache: object, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        x_shape, cols = cache
        n, f, oh, ow = dy.shape
        dy_mat = dy.transpose(1, 0, 2, 3).reshape(f, n * oh * ow)
        dw = (dy_mat @ cols.T).reshape(self.weight.shape)
        db = dy_mat.sum(axis=1)
        wmat = self.weight.reshape(self.out_channels, -1)
        dcols = wmat.T @ dy_mat
        dx = col2im(dcols, x_shape, self.kernel, self.kernel, self.stride, self.pad)
        return dx, {"weight": dw, "bias": db}

    # -- fault-injection support ------------------------------------------------ #
    def mac_operands(
        self, x: np.ndarray, out_index: tuple[int, ...], dtype: DataType | None
    ) -> MacChain:
        f, oy, ox = out_index
        w, b = self.quantized_weights(dtype)
        cc, yy, xx, valid = patch_indices(
            (1, *x.shape), (oy, ox), self.kernel, self.kernel, self.stride, self.pad
        )
        taps = np.zeros(cc.shape[0], dtype=np.float64)
        taps[valid] = x[cc[valid], yy[valid], xx[valid]]
        return MacChain(weights=w[f].ravel().copy(), inputs=taps, bias=float(b[f]))

    def window_taps(self, x: np.ndarray, oy: int, cols: np.ndarray) -> np.ndarray:
        """Input taps of the windows of output row ``oy`` at columns ``cols``.

        One fancy-index gather for many MAC chains: row ``n`` holds what
        :meth:`mac_operands` returns as ``inputs`` for output ``(f, oy,
        cols[n])`` (any ``f``), in the same step order, with zeros where
        a tap falls in the padding.

        Args:
            x: Unbatched input ``(c, h, w)``.
            oy: Output row.
            cols: Output columns, shape ``(n,)``.

        Returns:
            ``(n, c * kernel * kernel)`` float64 taps.
        """
        c, h, w = x.shape
        cc, ky, kx = _patch_grid(c, self.kernel, self.kernel)
        yy = oy * self.stride - self.pad + ky
        xx = np.asarray(cols)[:, None] * self.stride - self.pad + kx
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        taps = x[cc, np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)]
        return np.where(valid, taps, 0.0)
