"""Per-letter reference for the letter kernel of ``grigconj.words``.

``reduce`` and ``phi_pair`` below are the package's earlier per-letter
implementations, kept verbatim: a stack of letters with a merge table,
and one scan that tracks the a-parity of each star.  They share no code
with the run-coded kernel they are compared against.
"""

from grigconj.words import NotInStabilizer, a_parity

# Rewriting rules: every generator is an involution and any two distinct
# letters of {b, c, d} multiply to the third.
_MERGE = {
    "aa": "", "bb": "", "cc": "", "dd": "",
    "bc": "d", "cb": "d",
    "cd": "b", "dc": "b",
    "bd": "c", "db": "c",
}

# Images of the level-1 sections.  A star letter preceded by an even
# number of a's contributes via the plain generator, an odd number via
# the a-conjugated one:
#   psi(b) = (a, c)    psi(aba) = (c, a)
#   psi(c) = (a, d)    psi(aca) = (d, a)
#   psi(d) = (1, b)    psi(ada) = (b, 1)
_PHI0 = ({"b": "a", "c": "a", "d": ""}, {"b": "c", "c": "d", "d": "b"})
_PHI1 = (_PHI0[1], _PHI0[0])


def reduce(letters) -> str:
    """Rewrite a letter sequence to its reduced form.

    Single left-to-right pass keeping a stack of emitted letters; after
    each merge the new stack top is re-examined, so runtime is linear in
    the input length.  The result is a word equal to the input in the
    group, with norm no larger than the input's.
    """
    out = []
    merge = _MERGE
    for ch in letters:
        while out:
            r = merge.get(out[-1] + ch)
            if r is None:
                break
            out.pop()
            if r:
                ch = r
            else:
                ch = ""
                break
        if ch:
            out.append(ch)
    return "".join(out)


def phi_pair(w: str) -> tuple[str, str]:
    """Both level-1 sections (phi0(w), phi1(w)) of a word with even a-count.

    Single scan over the star letters; the parity of preceding a's picks
    which generator image each star contributes.
    """
    if a_parity(w):
        raise NotInStabilizer(f"{w!r} has odd a-count")
    p = 0
    img0 = []
    img1 = []
    phi0, phi1 = _PHI0, _PHI1
    for ch in w:
        if ch == "a":
            p ^= 1
        else:
            img0.append(phi0[p][ch])
            img1.append(phi1[p][ch])
    return reduce("".join(img0)), reduce("".join(img1))
