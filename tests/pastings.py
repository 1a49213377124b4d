"""Greechie pastings of 2^3 blocks, as raw lattice descriptions.

Each block is a triple of atom names.  An element is a nonempty proper
atom subset of one block: an atom p, or the pair of the block's other
two atoms, which is p's complement p'.  A singleton, and the complement
of a singleton, is one element in every block that holds its atom, so
blocks that share an atom overlap in {0, p, p', 1}.
"""

TWO = [("a", "b", "c"), ("c", "d", "e")]
CHAIN = TWO + [("e", "f", "g")]
PENTAGON = CHAIN + [("g", "h", "i"), ("i", "j", "a")]
TRIANGLE = TWO + [("e", "f", "a")]
SQUARE = CHAIN + [("g", "h", "a")]


def pasting_candidate(blocks) -> dict:
    """The raw description of the pasting of the 2^3 blocks given as
    atom triples; validate_oml decides whether it is an OML (Greechie:
    it is when no loop of blocks has order 3 or 4)."""
    atoms = sorted({p for block in blocks for p in block})
    covers = [["0", p] for p in atoms] + [[p + "'", "1"] for p in atoms]
    covers += [[p, q + "'"] for block in blocks for p in block
               for q in block if p != q]
    comp = {"0": "1", "1": "0"}
    for p in atoms:
        comp[p], comp[p + "'"] = p + "'", p
    return {"elements": ["0"] + atoms + [p + "'" for p in atoms] + ["1"],
            "covers": covers, "comp": comp, "bot": "0", "top": "1"}
