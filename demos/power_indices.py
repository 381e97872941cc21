"""Power indices on a weighted board.

A 4-seat board votes with weights 4, 2, 1, 1 and passes a motion when the
supporting weight exceeds half the total. Seat weight and actual influence
are different things; the two classic indices quantify the gap.
"""

from votefuse import VotingGame, banzhaf_exact, power_monte_carlo, shapley_shubik_exact

board = VotingGame((4, 2, 1, 1))
print(f"game: weights={board.weights} quota={board.quota} (strictly more than half)")

banzhaf = banzhaf_exact(board)
shapley = shapley_shubik_exact(board)
print("\nseat  weight  banzhaf  shapley-shubik")
for i in range(board.n):
    print(f"{i:4d}  {str(board.weights[i]):>6}  {banzhaf.normalized[i]:7.4f}  {shapley.normalized[i]:14.4f}")

# Seat 0 holds half the weight but all the power: every winning coalition
# needs it, and each small seat alone adds nothing it could not veto.
print("\nswing counts:", banzhaf.raw)

# The same question with a (2, 1, 1) committee gives the textbook 3:1:1 split.
small = banzhaf_exact(VotingGame((2, 1, 1)))
print("(2,1,1) committee normalized banzhaf:", small.normalized)

# Exact counts come from a DP over integer weights, so a 30-player game with
# weights 1..30 (total weight 465) is exact in milliseconds, although its
# 2^30 coalitions are far too many to enumerate. Sampling remains the route
# for games whose weights are too large for the DP; the report carries one
# standard error per player, and the estimate lands within a few of them.
big = VotingGame(tuple(range(1, 31)))
exact = banzhaf_exact(big)
estimate = power_monte_carlo(big, kind="banzhaf", trials=200_000, seed=42)
print("\n30-player game, banzhaf for the three heaviest players:")
print("  weight  exact    sampled  +- stderr  (errors in stderrs)")
for i in (29, 28, 27):
    est, ref, se = estimate.normalized[i], exact.normalized[i], estimate.stderr[i]
    print(f"  {str(big.weights[i]):>6}  {ref:.4f}  {est:.4f}  +- {se:.4f}  ({(est - ref) / se:+.1f})")
worst = max(abs(e - r) / s for e, r, s in zip(estimate.normalized, exact.normalized, estimate.stderr))
assert worst < 4, worst
print(f"largest gap over all 30 players: {worst:.1f} standard errors")

# Same seed, same numbers, bit for bit.
again = power_monte_carlo(big, kind="banzhaf", trials=200_000, seed=42)
assert again.normalized == estimate.normalized
print("rerun with seed 42 reproduces the estimate exactly")
