"""Evolve single-mode data on the three-node chain by the tree heat flow and
by the tree wave equation, and tabulate the two side by side.

The heat solver gives each mode in closed form from the splitting exponents
(u_t = d_T u); the wave solver sums the even t-series of the operator powers
(u_tt = d_T u, with zero initial velocity here).  At t = 0 both reproduce
the data exactly; to first order in t^2 the wave moves like the heat flow at
time t^2 / 2, which the last column compares against.

Usage: python3 scripts/wave_ivp_demo.py
"""

from flagpde import Tree, TrigData, solve_tree_heat_ivp, solve_tree_wave_ivp

tree = Tree(3, [(1, 2), (2, 3)])
widths = (1.0, 1.0, 1.0)
g0 = TrigData(widths, {(1, 1, 1): (1.0, 0.0)})
g1 = TrigData(widths, {})
points = [(0.1, 0.2, 0.3), (0.0, 0.5, -0.25), (-0.4, 0.4, 0.0)]

print(f"{'t':>6} {'point':>20} {'heat(t)':>14} {'wave(t)':>14} {'heat(t^2/2)':>14}")
for t in (0.0, 0.02, 0.05, 0.1):
    heat = solve_tree_heat_ivp(tree, g0, t, points)
    wave = solve_tree_wave_ivp(tree, g0, g1, t, points)
    for pt, h, w in zip(points, heat.values, wave.values):
        print(f"{t:>6.2f} {str(pt):>20} {h:>14.8f} {w:>14.8f} {heat.at(t * t / 2, pt):>14.8f}")
