"""Round-to-nearest vs calibrated quantization, on the samples and held out.

Both quantizers share the same symmetric grid; the calibrated one (GPTQ)
additionally propagates each column's rounding error into the columns not
yet quantized, weighted by the inverse Hessian of its calibration samples.
On those samples it always has the lower error ||m x - m^ x||. What counts
is the error on activations it was not fitted to, here a held-out draw of
4,096 from the same distribution:

* isotropic (standard-normal) activations: the expected Hessian is a
  multiple of the identity, so GPTQ fits only the noise of its samples and
  its held-out error is higher than RTN's;
* correlated activations (rank-8 mixing plus 0.1 noise), as a real model's
  are: GPTQ's held-out error is well below RTN's.

This is why compress runs GPTQ only when it is given real activations
(`activations=`, or `--calibration` on the command line), and rounds to
nearest without them.
"""

import numpy as np

from skillpack.quantize import calibration_error, quantize_gptq, quantize_rtn

SAMPLES, HELD_OUT = 128, 4096
MIX = np.random.default_rng(1).standard_normal((64, 8))


def isotropic(rng, samples):
    return rng.standard_normal((64, samples))


def correlated(rng, samples):
    return MIX @ rng.standard_normal((8, samples)) + 0.1 * rng.standard_normal((64, samples))


rng = np.random.default_rng(0)
matrix = rng.standard_normal((64, 64))
for name, draw in (("isotropic", isotropic), ("correlated", correlated)):
    x, held_out = draw(rng, SAMPLES), draw(rng, HELD_OUT)
    print(f"{name} activations, {SAMPLES} calibration samples; error per sample, fitted and held out")
    print(f"{'bits':>4}  {'rtn fit':>9}  {'gptq fit':>9}  {'rtn held':>9}  {'gptq held':>9}  {'held-out change':>15}")
    for bits in (2, 3, 4, 6, 8):
        rtn, gptq = quantize_rtn(matrix, bits).dequantize(), quantize_gptq(matrix, x, bits).dequantize()
        fit = [calibration_error(matrix, q, x) / np.sqrt(SAMPLES) for q in (rtn, gptq)]
        held = [calibration_error(matrix, q, held_out) / np.sqrt(HELD_OUT) for q in (rtn, gptq)]
        print(f"{bits:>4}  {fit[0]:>9.4f}  {fit[1]:>9.4f}  {held[0]:>9.4f}  {held[1]:>9.4f}"
              f"  {100 * (held[1] / held[0] - 1):>+14.1f}%")
    print()

# with identity activations every column is independent, and the two agree exactly
m = rng.standard_normal((8, 8))
identical = np.array_equal(quantize_gptq(m, np.eye(8), 4).codes, quantize_rtn(m, 4).codes)
print(f"identity calibration reduces to RTN bit-exactly: {identical}")
