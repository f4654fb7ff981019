/* kweave.svm.smo_train's binary fit, compiled: smo_fit is the whole fit,
   smo_loop its pair steps.

   It does the float operations of svm._numpy_fit in the same order, so both
   fits give the same bits; svm.py explains each step. That holds when built as
   svm._CFLAGS says: -O2 -ffp-contract=off (no fused multiply-add), with
   neither -ffast-math nor -march. Ties and NaNs follow numpy's argmax and
   argmin (the first index of the extreme, or the first NaN) and Python's min
   and max (the first argument wins a tie, and a NaN wins only as the first).
   numpy's max and min give a NaN if they meet one; the sign of a zero extreme
   met with both signs depends on numpy's SIMD order, so smo_fit leaves such a
   finish to numpy.

   K is the n x n C-contiguous Gram, U holds the rows u and l (smo_fit takes a
   third row as scratch). alpha and U are updated in place. */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* a pair loop's status, then smo_fit's refusal of its arrays (svm._array_fault
   names the fault) */
enum { SMO_CONVERGED, SMO_STALLED, SMO_CAPPED, SMO_REFUSED };
/* or'ed into smo_fit's status when numpy must compute the KKT gap and bias */
#define SMO_NUMPY_FINISH 8

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

/* The pair steps from the start U. Returns SMO_CONVERGED, SMO_STALLED or
   SMO_CAPPED, with the pair steps taken in *steps and, at a stall, the KKT gap
   in *gap. */
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

/* No entry of v[0..count) is NaN or inf: v - v is 0.0 for a finite v and NaN
   for any other. Four independent sums, which the compiler vectorizes at -O2
   without reordering any one of them. */
static int all_finite(const double *v, int64_t count)
{
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    int64_t k = 0;
    for (; k + 4 <= count; k += 4)
        for (int w = 0; w < 4; w++)
            acc[w] += v[k + w] - v[k + w];
    for (; k < count; k++)
        acc[0] += v[k] - v[k];
    return (acc[0] + acc[1]) + (acc[2] + acc[3]) == 0.0;
}

/* numpy's pairwise sum: below 8 values one by one, up to 128 in 8
   accumulators and then the rest one by one, above that the two halves split
   at a multiple of 8 */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        memcpy(r, a, sizeof r);
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int w = 0; w < 8; w++)
                r[w] += a[i + w];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* numpy's max (largest) or min of the values added, -inf or +inf before any */
struct extreme {
    double x;
    int largest, pos_zero, neg_zero;
};

static void extreme_add(struct extreme *e, double v)
{
    if (isnan(e->x))
        return;
    if (isnan(v) || (e->largest ? v > e->x : v < e->x))
        e->x = v;
    if (v == 0.0)
        *(signbit(v) ? &e->neg_zero : &e->pos_zero) = 1;
}

/* a zero extreme met with both signs: numpy's SIMD order picks the sign */
static int extreme_unsure(const struct extreme *e)
{
    return e->x == 0.0 && e->pos_zero && e->neg_zero;
}

/* The whole binary fit: the array checks, the start U, smo_loop, the KKT gap
   and the bias. Ka is K (alpha * y) for a seeded fit, NULL for a cold one
   (alpha = 0, whose start m = y - K 0 is y exactly). Returns SMO_REFUSED
   before touching alpha, U, *steps or out unless K is finite, y holds both
   classes and a seeded alpha is finite and inside [0, C]; else smo_loop's
   status, or'ed with SMO_NUMPY_FINISH where numpy must compute the finish
   from alpha and U. out receives the KKT gap at a stall, the KKT gap at exit
   and the bias. */
int smo_fit(const double *K, const double *y, double *alpha, double *U, int64_t n,
            double C, double tol, int64_t max_iter, double tau, const double *Ka,
            int64_t *steps, double *out)
{
    if (!all_finite(K, n * n) || (Ka && !all_finite(alpha, n)))
        return SMO_REFUSED;
    int has_pos = 0, has_neg = 0, in_box = 1;
    for (int64_t k = 0; k < n; k++) {
        has_pos |= y[k] > 0;
        has_neg |= y[k] < 0;
        in_box &= !(alpha[k] < 0.0) && !(alpha[k] > C);
    }
    if (!(has_pos && has_neg && in_box))
        return SMO_REFUSED;

    double *u = U, *l = U + n;
    for (int64_t k = 0; k < n; k++) {
        double m = Ka ? y[k] - Ka[k] : y[k];
        int below_c = alpha[k] < C, above_0 = alpha[k] > 0.0;
        u[k] = (y[k] > 0 ? below_c : above_0) ? m : -INFINITY;
        l[k] = (y[k] > 0 ? above_0 : below_c) ? m : INFINITY;
    }
    int status = smo_loop(K, y, alpha, U, n, C, tol, max_iter, tau, steps, &out[0]);

    struct extreme top = {-INFINITY, 1}, bottom = {INFINITY, 0};
    for (int64_t k = 0; k < n; k++) {
        extreme_add(&top, u[k]);
        extreme_add(&bottom, l[k]);
    }
    double gap = top.x - bottom.x;
    out[1] = isfinite(gap) ? gap : 0.0;

    /* v = -y * G as svm._numpy_finish builds it; the values at free duals
       are gathered into U's scratch row, in index order */
    double eps = 1e-8 * C, *free = U + 2 * n;
    int64_t n_free = 0;
    struct extreme lo = {-INFINITY, 1}, hi = {INFINITY, 0};
    for (int64_t k = 0; k < n; k++) {
        double m = u[k] > -INFINITY ? u[k] : l[k];
        double v = -y[k] * (-y[k] * m + 0.0), a = alpha[k];
        if (a > eps && a < C - eps)
            free[n_free++] = v;
        if (y[k] > 0 ? a <= eps : a >= C - eps)
            extreme_add(&lo, v);
        if (y[k] > 0 ? a >= C - eps : a <= eps)
            extreme_add(&hi, v);
    }
    int unsure = extreme_unsure(&top) || extreme_unsure(&bottom);
    if (n_free) {
        /* numpy's sum adds the pairwise sum to its identity 0.0 */
        out[2] = (0.0 + pairwise_sum(free, n_free)) / (double)n_free;
    } else {
        unsure |= extreme_unsure(&lo) || extreme_unsure(&hi);
        if (isinf(lo.x))
            out[2] = hi.x;
        else if (isinf(hi.x))
            out[2] = lo.x;
        else
            out[2] = (lo.x + hi.x) / 2.0;
    }
    return unsure ? status | SMO_NUMPY_FINISH : status;
}
