"""The syllable-by-syllable word image: the reference route that
propfox.fox.scaled_image, which reads a word's runs, is checked against.

It multiplies the images of the word's syllables one after another, each
distinct syllable power computed once by squaring, and never looks at
repeated blocks.
"""

from propfox.matrices import scaled_identity, scaled_mul, scaled_pow


def syllable_scaled_image(rep, word):
    """Image of a word under a SpecializedRep, as a scaled matrix in lowest
    terms: the explicit product of its syllable images rep.scaled[g]^e,
    with rep.scaled_invs[g] for e < 0."""
    powers = {}
    acc = None
    for g, e in word.syllables:
        power = powers.get((g, e))
        if power is None:
            image = rep.scaled[g] if e > 0 else rep.scaled_invs[g]
            power = powers[g, e] = scaled_pow(image, abs(e))
        acc = power if acc is None else scaled_mul(acc, power)
    return scaled_identity(rep.dim) if acc is None else acc
