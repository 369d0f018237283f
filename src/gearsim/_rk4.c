/* Classical RK4 of the relative coordinate: the C twin of classical._rk4
 * and classical._rk4_until.
 *
 * Every expression is the one the Python loop evaluates, in the same order,
 * so that built without FMA contraction or fast math (-ffp-contract=off)
 * and calling the libm sin that math.sin calls, it gives the same floats.
 * n, I_r, nV0 = n * V0 and pa[j] = p[j] * a_j arrive as the doubles Python
 * computed.
 *
 * gearsim_rk4 writes n_steps + 1 samples to theta and L, the start
 * included.  gearsim_rk4_until steps until the newest pair of samples fires
 * the event and returns that step's index, or 0 if none of n_steps does;
 * bracket receives the pair (theta, L) before and after the last step it
 * took, or the start twice if it took none.  Mode 0 fires when L changes
 * sign (numpy's sign(L[i+1]) * sign(L[i]) < 0: a zero or NaN never fires),
 * mode 1 when (theta - target) * direction >= 0.
 */
#include <math.h>

static double force(double x, long k, const double *p, const double *pa)
{
    double du = 0.0;
    for (long j = 0; j < k; j++)
        du -= pa[j] * sin(p[j] * x);
    return du;
}

static void step(double n, double I_r, double nV0, long k, const double *p,
                 const double *pa, double dt, double *th, double *l)
{
    double half = 0.5 * dt, t = *th, m = *l;
    double k1t = m / I_r, k1l = nV0 * force(n * t, k, p, pa);
    double th2 = t + half * k1t, l2 = m + half * k1l;
    double k2t = l2 / I_r, k2l = nV0 * force(n * th2, k, p, pa);
    double th3 = t + half * k2t, l3 = m + half * k2l;
    double k3t = l3 / I_r, k3l = nV0 * force(n * th3, k, p, pa);
    double th4 = t + dt * k3t, l4 = m + dt * k3l;
    double k4t = l4 / I_r, k4l = nV0 * force(n * th4, k, p, pa);
    *th = t + dt * (k1t + 2 * k2t + 2 * k3t + k4t) / 6.0;
    *l = m + dt * (k1l + 2 * k2l + 2 * k3l + k4l) / 6.0;
}

void gearsim_rk4(double n, double I_r, double nV0, long k, const double *p,
                 const double *pa, double th, double l, double dt,
                 long n_steps, double *theta, double *L)
{
    theta[0] = th;
    L[0] = l;
    for (long i = 1; i <= n_steps; i++) {
        step(n, I_r, nV0, k, p, pa, dt, &th, &l);
        theta[i] = th;
        L[i] = l;
    }
}

long gearsim_rk4_until(double n, double I_r, double nV0, long k,
                       const double *p, const double *pa, double th, double l,
                       double dt, long n_steps, long mode, double target,
                       double direction, double *bracket)
{
    long fired = 0;
    double tp = th, lp = l;
    for (long i = 1; i <= n_steps && !fired; i++) {
        tp = th;
        lp = l;
        step(n, I_r, nV0, k, p, pa, dt, &th, &l);
        if (mode == 0 ? (lp > 0 && l < 0) || (lp < 0 && l > 0)
                      : (th - target) * direction >= 0)
            fired = i;
    }
    bracket[0] = tp;
    bracket[1] = lp;
    bracket[2] = th;
    bracket[3] = l;
    return fired;
}
