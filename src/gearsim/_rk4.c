/* The compiled kernels of gearsim, plain C with no Python API.
 *
 * gearsim_rk4 is the classical RK4 of the relative coordinate: the C twin
 * of classical._rk4.  Every expression is the one the Python loop
 * evaluates, in the same order, so that built without FMA contraction or
 * fast math (-ffp-contract=off) and calling the libm sin that math.sin
 * calls, it gives the same floats.  n, I_r, nV0 = n * V0 and pa[j] =
 * p[j] * a_j arrive as the doubles Python computed.
 *
 * gearsim_rk4 writes the samples to theta and L from the start on, and
 * stops after n_steps steps or after the first step whose pair of samples
 * fires the event `mode`; it returns that step's index, or 0.  Mode 0 fires
 * when L changes sign (numpy's sign(L[i+1]) * sign(L[i]) < 0: a zero or NaN
 * never fires), mode 1 when (theta - target) * direction >= 0, and mode 2
 * never.
 *
 * gearsim_phases writes exp(-iEt) for every time t and energy E, row by
 * row, as the (T, d) complex matrix numpy's np.exp(np.outer(t, -1j * E))
 * gives, bit for bit.  numpy's complex multiply forms the argument as
 * 0 + i y with y = t * -E + 0.0 rounded once, a fused multiply-add (an
 * exact zero comes out +0.0, a product that underflows keeps its sign),
 * and evaluates it with the libm cexp, which for a zero real part is
 * (cos y, sin y), or (1, y) when |y| is at most DBL_MIN.  Where libm has
 * sincos, the compiler fuses the cos and sin into one call.
 */
#include <float.h>
#include <math.h>

static double force(double x, long k, const double *p, const double *pa)
{
    double du = 0.0;
    for (long j = 0; j < k; j++)
        du -= pa[j] * sin(p[j] * x);
    return du;
}

long gearsim_rk4(double n, double I_r, double nV0, long k, const double *p,
                 const double *pa, double th, double l, double dt,
                 long n_steps, long mode, double target, double direction,
                 double *theta, double *L)
{
    double half = 0.5 * dt;
    theta[0] = th;
    L[0] = l;
    for (long i = 1; i <= n_steps; i++) {
        double k1t = l / I_r, k1l = nV0 * force(n * th, k, p, pa);
        double th2 = th + half * k1t, l2 = l + half * k1l;
        double k2t = l2 / I_r, k2l = nV0 * force(n * th2, k, p, pa);
        double th3 = th + half * k2t, l3 = l + half * k2l;
        double k3t = l3 / I_r, k3l = nV0 * force(n * th3, k, p, pa);
        double th4 = th + dt * k3t, l4 = l + dt * k3l;
        double k4t = l4 / I_r, k4l = nV0 * force(n * th4, k, p, pa);
        double lp = l;
        th += dt * (k1t + 2 * k2t + 2 * k3t + k4t) / 6.0;
        l += dt * (k1l + 2 * k2l + 2 * k3l + k4l) / 6.0;
        theta[i] = th;
        L[i] = l;
        if (mode == 0 ? (lp > 0 && l < 0) || (lp < 0 && l > 0)
                      : mode == 1 && (th - target) * direction >= 0)
            return i;
    }
    return 0;
}

void gearsim_phases(long T, long d, const double *t, const double *E,
                    double *out)
{
    for (long i = 0; i < T; i++)
        for (long j = 0; j < d; j++, out += 2) {
            double y = fma(t[i], -E[j], 0.0);
            if (fabs(y) > DBL_MIN) {
                out[0] = cos(y);
                out[1] = sin(y);
            } else {
                out[0] = 1.0;
                out[1] = y;
            }
        }
}
