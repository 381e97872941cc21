"""How often scoring rules elect the candidate who beats all others head to head.

With three candidates such a pairwise champion usually exists, and a scoring
rule is judged by how often it agrees, counting every preference profile as
equally likely.
"""

from fractions import Fraction

from votefuse import RankedBallot, ScoringVector, condorcet_efficiency, condorcet_winner

plurality = ScoringVector((1, 0, 0))
borda = ScoringVector((2, 1, 0))

res_p = condorcet_efficiency(plurality, 3, 3)
res_b = condorcet_efficiency(borda, 3, 3)
print("3 candidates, 3 voters, all 216 profiles checked exactly:")
print(f"  plurality agrees on {res_p.exact} of the {res_p.profiles_with_winner} decisive profiles")
print(f"  borda     agrees on {res_b.exact}")

# Some profiles have no champion at all: the classic three-ballot cycle.
cycle = [RankedBallot(("a", "b", "c")), RankedBallot(("b", "c", "a")), RankedBallot(("c", "a", "b"))]
print(f"\ncyclic profile has champion: {condorcet_winner(cycle)}")

print("\nplurality efficiency as the electorate grows (3 candidates):")
for n in (3, 5, 7):
    exact = condorcet_efficiency(plurality, 3, n)
    print(f"  n={n}: {exact.exact} = {float(exact.exact):.4f}")
big = condorcet_efficiency(plurality, 3, 25, method="monte-carlo", trials=200_000, seed=9)
print(f"  n=25 (sampled): {big.value:.4f} +- {big.stderr:.4f}")

# Sweep the middle score s = (1, lam, 0). The halfway point is the borda
# rule up to scaling; at this tiny electorate a lighter middle weight
# actually does better, a genuine small-n effect.
print("\nmiddle-rank weight sweep at 3 candidates, 5 voters:")
for lam in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
    sv = ScoringVector((1, lam, 0))
    r = condorcet_efficiency(sv, 3, 5)
    print(f"  lam={str(lam):>4}: {float(r.exact):.4f}")

# Four candidates and five voters give 24^5 profiles, which collapse to
# 98,280 ranking-count multisets; all of them are scored exactly.
b4 = condorcet_efficiency(ScoringVector.borda(4), 4, 5)
print(f"\nborda, 4 candidates, 5 voters: {b4.exact} = {b4.value:.4f} "
      f"({b4.profiles_with_winner} of {24**5} profiles have a champion)")

# Ties can be scored two ways; split credit is more forgiving than failing.
# (With 4 voters a champion needs 3 of 4 in every pairing, so plurality is
# flawless there; n=6 brings the tie policies apart.)
strict = condorcet_efficiency(plurality, 3, 6, tie_policy="fail")
split = condorcet_efficiency(plurality, 3, 6, tie_policy="split-credit")
print(f"\nn=6 with ties failing: {float(strict.exact):.4f}, split credit: {float(split.exact):.4f}")
