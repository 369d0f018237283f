/* Classical RK4 of the relative coordinate: the C twin of classical._rk4.
 *
 * Every expression is the one the Python loop evaluates, in the same order,
 * so that built without FMA contraction or fast math (-ffp-contract=off)
 * and calling the libm sin that math.sin calls, it gives the same floats.
 * n, I_r, nV0 = n * V0 and pa[j] = p[j] * a_j arrive as the doubles Python
 * computed.  theta and L receive n_steps + 1 samples, the start included.
 */
#include <math.h>

static double force(double x, long k, const double *p, const double *pa)
{
    double du = 0.0;
    for (long j = 0; j < k; j++)
        du -= pa[j] * sin(p[j] * x);
    return du;
}

void gearsim_rk4(double n, double I_r, double nV0, long k, const double *p,
                 const double *pa, double th, double l, double dt,
                 long n_steps, double *theta, double *L)
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
        th += dt * (k1t + 2 * k2t + 2 * k3t + k4t) / 6.0;
        l += dt * (k1l + 2 * k2l + 2 * k3l + k4l) / 6.0;
        theta[i] = th;
        L[i] = l;
    }
}
