/* The pair-step loop of kweave.svm.smo_train, compiled.

   It does the float operations of svm._numpy_pair_loop in the same order, so
   both loops give the same bits; svm.py explains each step. That holds when
   built as svm._CFLAGS says: -O2 -ffp-contract=off (no fused multiply-add),
   with neither -ffast-math nor -march. Ties and NaNs follow numpy's argmax and
   argmin (the first index of the extreme, or the first NaN) and Python's min
   and max (the first argument wins a tie, and a NaN wins only as the first).

   K is the n x n C-contiguous Gram, U the 2 x n rows u and l. alpha and U are
   updated in place. Returns SMO_CONVERGED, SMO_STALLED or SMO_CAPPED, with the
   pair steps taken in *steps and, at a stall, the KKT gap in *gap. */

#include <math.h>
#include <stdint.h>

enum { SMO_CONVERGED, SMO_STALLED, SMO_CAPPED };

static int64_t arg_extreme(const double *v, int64_t n, int largest)
{
    int64_t best = 0;
    for (int64_t k = 1; k < n && !isnan(v[best]); k++)
        if (largest ? !(v[k] <= v[best]) : !(v[k] >= v[best]))
            best = k;
    return best;
}

/* min(max(a, 0.0), C) */
static double clip(double a, double C)
{
    a = 0.0 > a ? 0.0 : a;
    return C < a ? C : a;
}

/* a step that moves k onto or off a bound rewrites u[k] and l[k] */
static void rebound(double *u, double *l, const double *y, int64_t k, double a,
                    double a_old, double C)
{
    if (0.0 < a && a < C && 0.0 < a_old && a_old < C)
        return;
    double mk = u[k] > -INFINITY ? u[k] : l[k];
    int up = y[k] > 0 ? a < C : a > 0.0;
    int low = y[k] > 0 ? a > 0.0 : a < C;
    u[k] = up ? mk : -INFINITY;
    l[k] = low ? mk : INFINITY;
}

int smo_loop(const double *K, const double *y, double *alpha, double *U, int64_t n,
             double C, double tol, int64_t max_iter, double tau, int64_t *steps,
             double *gap)
{
    double *u = U, *l = U + n;
    int status = SMO_CAPPED;
    int64_t it = 0;
    for (; it < max_iter; it++) {
        int64_t i = arg_extreme(u, n, 1), j = arg_extreme(l, n, 0);
        double mi = u[i], mj = l[j];
        if (mi - mj <= tol) {
            status = SMO_CONVERGED;
            break;
        }
        double yi = y[i], yj = y[j], old_i = alpha[i], old_j = alpha[j];
        double quad = K[i * n + i] + K[j * n + j] - 2.0 * K[i * n + j];
        double delta = (mi - mj) / (tau > quad ? tau : quad);
        double cap_i = yi > 0 ? C - old_i : old_i;
        double cap_j = yj > 0 ? old_j : C - old_j;
        delta = cap_i < delta ? cap_i : delta;
        delta = cap_j < delta ? cap_j : delta;
        double s = yi * old_i + yj * old_j, ai, aj;
        if (cap_j <= cap_i && delta >= cap_j) {
            aj = yj > 0 ? 0.0 : C;
            ai = yi * (s - yj * aj);
        } else if (delta >= cap_i) {
            ai = yi > 0 ? C : 0.0;
            aj = yj * (s - yi * ai);
        } else {
            ai = old_i + yi * delta;
            aj = old_j - yj * delta;
        }
        ai = clip(ai, C);
        aj = clip(aj, C);
        alpha[i] = ai;
        alpha[j] = aj;
        double dai = ai - old_i, daj = aj - old_j;
        if (dai == 0.0 && daj == 0.0) {
            *gap = mi - mj;
            status = SMO_STALLED;
            break;
        }
        const double *Ki = K + i * n, *Kj = K + j * n;
        double ci = yi * dai, cj = yj * daj;
        for (int64_t k = 0; k < n; k++) {
            double t = Ki[k] * ci + Kj[k] * cj;
            u[k] = u[k] - t;
            l[k] = l[k] - t;
        }
        rebound(u, l, y, i, ai, old_i, C);
        rebound(u, l, y, j, aj, old_j, C);
    }
    *steps = it;
    return status;
}
