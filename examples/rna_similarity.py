"""RNA secondary structure similarity (the paper's §1 biology motivation).

Three structural families — hairpins, cloverleafs (tRNA-like) and
double-stem structures — are encoded as trees; a k-NN query with the
BiBranch filter assigns an unlabeled molecule to its family, and the
similarity self-join surfaces the structurally redundant entries.

Run with:  python examples/rna_similarity.py
"""

import random
from typing import List, Tuple

from repro import TreeDatabase, similarity_self_join
from repro.filters import BinaryBranchFilter
from repro.trees.rna import rna_to_tree

BASES = "ACGU"
PAIRS = [("G", "C"), ("C", "G"), ("A", "U"), ("U", "A"), ("G", "U")]


def make_hairpin(rng: random.Random, stem_range=(4, 7)) -> Tuple[str, str]:
    stem = rng.randint(*stem_range)
    loop = rng.randint(3, 6)
    left, right = zip(*(rng.choice(PAIRS) for _ in range(stem)))
    seq = "".join(left) + "".join(rng.choice(BASES) for _ in range(loop)) + \
        "".join(reversed(right))
    struct = "(" * stem + "." * loop + ")" * stem
    return seq, struct


def make_cloverleaf(rng: random.Random) -> Tuple[str, str]:
    """Three hairpin arms off a closing stem — the tRNA silhouette."""
    arms = [make_hairpin(rng) for _ in range(3)]
    stem = rng.randint(3, 5)
    left, right = zip(*(rng.choice(PAIRS) for _ in range(stem)))
    seq = "".join(left)
    struct = "(" * stem
    for arm_seq, arm_struct in arms:
        seq += arm_seq + rng.choice(BASES)
        struct += arm_struct + "."
    seq += "".join(reversed(right))
    struct += ")" * stem
    return seq, struct


def make_double_stem(rng: random.Random) -> Tuple[str, str]:
    # long twin stems keep the family structurally far from single hairpins
    (s1, t1), (s2, t2) = make_hairpin(rng, (7, 9)), make_hairpin(rng, (7, 9))
    linker = rng.randint(2, 4)
    seq = s1 + "".join(rng.choice(BASES) for _ in range(linker)) + s2
    struct = t1 + "." * linker + t2
    return seq, struct


def main() -> None:
    rng = random.Random(2005)
    families = {
        "hairpin": make_hairpin,
        "cloverleaf": make_cloverleaf,
        "double-stem": make_double_stem,
    }
    molecules: List = []
    labels: List[str] = []
    for name, factory in families.items():
        for _ in range(10):
            sequence, structure = factory(rng)
            molecules.append(rna_to_tree(sequence, structure))
            labels.append(name)

    # plant a redundant entry: the first hairpin with a single point mutation
    duplicate = molecules[0].clone()
    duplicate.leaves().__next__().label = "A"
    molecules.append(duplicate)
    labels.append("hairpin")

    db = TreeDatabase(molecules, flt=BinaryBranchFilter())
    print(f"indexed {len(db)} RNA structures "
          f"({', '.join(sorted(families))})\n")

    # classify three held-out molecules by 3-NN majority vote
    correct = 0
    probes = [("hairpin", make_hairpin), ("cloverleaf", make_cloverleaf),
              ("double-stem", make_double_stem)]
    for true_family, factory in probes:
        sequence, structure = factory(rng)
        query = rna_to_tree(sequence, structure)
        neighbors, stats = db.knn(query, 3)
        votes = [labels[index] for index, _ in neighbors]
        predicted = max(set(votes), key=votes.count)
        marker = "+" if predicted == true_family else "-"
        correct += predicted == true_family
        print(f"  [{marker}] {true_family:<12} -> predicted {predicted:<12} "
              f"(neighbors: {votes}, accessed "
              f"{stats.accessed_percentage:.0f}%)")
    print(f"\nclassification: {correct}/3 correct")

    # structural redundancy: near-identical molecules in the collection
    flt = BinaryBranchFilter().fit(molecules)
    pairs, stats = similarity_self_join(molecules, threshold=2, flt=flt)
    print(f"near-duplicate structures (distance <= 2): {len(pairs)} pairs; "
          f"filter pruned {stats.dataset_size - stats.candidates} of "
          f"{stats.dataset_size} candidate pairs")
    assert correct == 3


if __name__ == "__main__":
    main()
