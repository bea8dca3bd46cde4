"""Deterministic random-number plumbing.

Every stochastic component in the library accepts either a seed or a
``numpy.random.Generator``.  Components that need several independent
streams derive child generators from a parent with :func:`derive_rng`,
keyed by a stable string label, so simulations are reproducible from a
single seed and insensitive to call ordering between subsystems.
"""

from __future__ import annotations

import threading
import zlib
from typing import Sequence, Tuple, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    ``seed`` may be ``None`` (fresh entropy), an integer, or an existing
    generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(parent: SeedLike, label: str) -> np.random.Generator:
    """Derive an independent child generator from ``parent`` keyed by ``label``.

    The same ``(parent seed, label)`` pair always yields the same stream.
    When ``parent`` is already a Generator the child is seeded from the
    parent's bit stream combined with a CRC of the label, which keeps
    derivations order-dependent only on the parent draws made so far.
    """
    tag = zlib.crc32(label.encode("utf-8"))
    if isinstance(parent, np.random.Generator):
        base = int(parent.integers(0, 2**32))
    elif parent is None:
        base = int(np.random.default_rng().integers(0, 2**32))
    else:
        base = int(parent) & 0xFFFFFFFF
    return np.random.default_rng((base << 32) ^ tag)


def stable_hash(*parts: object) -> int:
    """Deterministic 64-bit hash of the string forms of ``parts``.

    Unlike built-in ``hash`` this does not depend on ``PYTHONHASHSEED``,
    so it is safe for seeding spatially keyed noise fields.
    """
    text = "\x1f".join(str(p) for p in parts).encode("utf-8")
    lo = zlib.crc32(text)
    hi = zlib.adler32(text)
    return (hi << 32) | lo


def stable_hash_prefix(*parts: object) -> Tuple[int, int]:
    """Running ``(crc32, adler32)`` of :func:`stable_hash`'s text for ``parts``.

    The text is that of ``parts``, each followed by the separator.  Both
    checksums resume from a running value, so if ``rest`` is the UTF-8
    text of further parts joined by separators,
    ``(zlib.adler32(rest, adler) << 32) | zlib.crc32(rest, crc)`` equals
    ``stable_hash(*parts, *further)`` without re-reading the prefix.
    """
    text = "".join(str(p) + "\x1f" for p in parts).encode("utf-8")
    return zlib.crc32(text), zlib.adler32(text)


def field_rng(seed: SeedLike, *key: object) -> np.random.Generator:
    """Generator for a *spatially keyed* draw (e.g. shadowing at a grid cell).

    The stream depends only on the base seed and the key, never on draw
    order, so the same location always sees the same static noise.
    """
    return np.random.default_rng((_field_base(seed), stable_hash(*key)))


def _field_base(seed: SeedLike) -> int:
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "field_rng needs a stable integer seed, not a live Generator; "
            "pass the component's configured seed instead"
        )
    return (0 if seed is None else int(seed)) & 0xFFFFFFFF


# Constants of numpy's SeedSequence (bit_generator.pyx) and PCG64 (pcg64.h).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_POOL = 4

_U32 = np.uint64(_MASK32)
_ONE = np.uint64(1)
_SHIFT_32 = np.uint64(32)
_SHIFT_63 = np.uint64(63)
_SHIFT_64 = np.uint64(64)
_SHIFT_ROT = np.uint64(58)  # bits 122-127 of the state: the output rotation
_M_HI = np.uint64(_PCG_MULT >> 64)
_M_LO = np.uint64(_PCG_MULT & _MASK64)
_M_LO_HALVES = (
    np.uint64(_PCG_MULT & _MASK32),
    np.uint64((_PCG_MULT >> 32) & _MASK32),
)


def _hash_consts(init: int, mult: int, count: int) -> tuple:
    """``(xor, multiplier)`` columns of ``count`` successive hashmix steps."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# mix_entropy makes POOL fill steps then POOL*(POOL-1) cross-mix steps;
# generate_state(4, uint64) makes 8 output steps.
_MIX_XOR, _MIX_MULT = _hash_consts(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_STATE_XOR, _STATE_MULT = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
# The cross-mix steps of pool word ``src``, in order: the rows it feeds
# and the slice of hashmix constants they use.
_CROSS_MIX = [
    (
        [dst for dst in range(_POOL) if dst != src],
        slice(_POOL + (_POOL - 1) * src, _POOL + (_POOL - 1) * (src + 1)),
    )
    for src in range(_POOL)
]

# numpy's normal-ziggurat tables (ziggurat_constants.h): ``wi`` holds the
# strips' right edges scaled by 2**-52 and ``ki`` the fast-path bounds on
# the 52-bit magnitude.  ``repro.testkit.ziggurat`` re-derives both from the
# installed numpy.
_WI = np.array(
    [
        8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17,
        7.454870481247696e-17, 8.3293668157931e-17, 9.068060405059482e-17,
        9.714860076567762e-17, 1.0294750314241019e-16, 1.0823430288447684e-16,
        1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
        1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16,
        1.3697864842571203e-16, 1.4034823001242382e-16, 1.4359529452056943e-16,
        1.4673208742364422e-16, 1.4976904668391037e-16, 1.5271515003596198e-16,
        1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
        1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16,
        1.713417017655966e-16, 1.737754436586486e-16, 1.7616331923000996e-16,
        1.7850812316976727e-16, 1.8081240285799152e-16, 1.830784876482675e-16,
        1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
        1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16,
        1.9803160683128174e-16, 2.000566877627333e-16, 2.0205791562071654e-16,
        2.0403638415480212e-16, 2.0599311887403706e-16, 2.079290829041402e-16,
        2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
        2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16,
        2.2096924282235318e-16, 2.2276773304789553e-16, 2.2455202529414355e-16,
        2.263226755928568e-16, 2.280802138345017e-16, 2.2982514554424684e-16,
        2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
        2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16,
        2.4172472704675025e-16, 2.433845631371103e-16, 2.4503547622614954e-16,
        2.466777995232705e-16, 2.4831185421610877e-16, 2.4993795016204524e-16,
        2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
        2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16,
        2.6112170470670194e-16, 2.6269412038597256e-16, 2.6426094988411895e-16,
        2.658224191608307e-16, 2.6737874806323633e-16, 2.689301506472616e-16,
        2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
        2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16,
        2.79668929362423e-16, 2.8118802553450207e-16, 2.827039064324479e-16,
        2.842167425218406e-16, 2.8572670107546015e-16, 2.87233946347098e-16,
        2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
        2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16,
        2.977219284209029e-16, 2.992130701386013e-16, 3.007028663321331e-16,
        3.0219145919680615e-16, 3.036789894211802e-16, 3.051655962978219e-16,
        3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
        3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16,
        3.1555744654528006e-16, 3.1704154791040285e-16, 3.1852593363044065e-16,
        3.2001073454440114e-16, 3.214960811527447e-16, 3.2298210370394156e-16,
        3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
        3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16,
        3.3341411523123725e-16, 3.3491023205407785e-16, 3.364081996918765e-16,
        3.37908150518595e-16, 3.394102175841489e-16, 3.409145347003126e-16,
        3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
        3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16,
        3.5151919672760744e-16, 3.53046452078274e-16, 3.5457721079774357e-16,
        3.5611161930983884e-16, 3.5764982583726505e-16, 3.59191980508603e-16,
        3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
        3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16,
        3.7011067458828983e-16, 3.716900855823823e-16, 3.7327490092779435e-16,
        3.7486529645684887e-16, 3.7646145133120287e-16, 3.7806354820089604e-16,
        3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
        3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16,
        3.894607570481926e-16, 3.9111744183782054e-16, 3.9278189920805415e-16,
        3.944543570720877e-16, 3.9613504910761354e-16, 3.9782421502646826e-16,
        3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
        4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16,
        4.0990718603532664e-16, 4.1167359738030257e-16, 4.134509635544236e-16,
        4.1523960294026883e-16, 4.170398440568316e-16, 4.1885202607101123e-16,
        4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
        4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16,
        4.3190263810026294e-16, 4.338240305622791e-16, 4.357609972736849e-16,
        4.3771402012585875e-16, 4.3968359995105214e-16, 4.4167025761542035e-16,
        4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
        4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16,
        4.561035841567422e-16, 4.582484498109567e-16, 4.604162081631153e-16,
        4.626076619547846e-16, 4.648236531543207e-16, 4.670650656712631e-16,
        4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
        4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16,
        4.835513029411525e-16, 4.860340511450812e-16, 4.885526531353603e-16,
        4.91108629959527e-16, 4.937035980240335e-16, 4.963392774403987e-16,
        4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
        5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16,
        5.161000557743228e-16, 5.191394311757699e-16, 5.222416338000234e-16,
        5.254101724177597e-16, 5.286488569504945e-16, 5.3196183453384e-16,
        5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
        5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16,
        5.576748932926576e-16, 5.617895553555417e-16, 5.660408920082422e-16,
        5.704404621291389e-16, 5.750013768919895e-16, 5.797385945724594e-16,
        5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
        6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16,
        6.197089894581626e-16, 6.268046963301284e-16, 6.344122407127506e-16,
        6.426239659548055e-16, 6.515603317344994e-16, 6.613827885097664e-16,
        6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
        7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16,
        8.113849337656484e-16,
    ]
)
_KI = np.array(
    [
        0xEF33D8025EF6A, 0x0000000000000, 0xC08BE98FBC6A8, 0xDA354FABD8142,
        0xE51F67EC1EEEA, 0xEB255E9D3F77E, 0xEEF4B817ECAB9, 0xF19470AFA44AA,
        0xF37ED61FFCB18, 0xF4F469561255C, 0xF61A5E41BA396, 0xF707A755396A4,
        0xF7CB2EC28449A, 0xF86F10C6357D3, 0xF8FA6578325DE, 0xF9724C74DD0DA,
        0xF9DA907DBF509, 0xFA360F581FA74, 0xFA86FDE5B4BF8, 0xFACF160D354DC,
        0xFB0FB6718B90F, 0xFB49F8D5374C6, 0xFB7EC2366FE77, 0xFBAECE9A1E50E,
        0xFBDAB9D040BED, 0xFC03060FF6C57, 0xFC2821037A248, 0xFC4A67AE25BD1,
        0xFC6A2977AEE31, 0xFC87AA92896A4, 0xFCA325E4BDE85, 0xFCBCCE902231A,
        0xFCD4D12F839C4, 0xFCEB54D8FEC99, 0xFD007BF1DC930, 0xFD1464DD6C4E6,
        0xFD272A8E2F450, 0xFD38E4FF0C91E, 0xFD49A9990B478, 0xFD598B8920F53,
        0xFD689C08E99EC, 0xFD76EA9C8E832, 0xFD848547B08E8, 0xFD9178BAD2C8C,
        0xFD9DD07A7ADD2, 0xFDA9970105E8C, 0xFDB4D5DC02E20, 0xFDBF95C5BFCD0,
        0xFDC9DEBB99A7D, 0xFDD3B8118729D, 0xFDDD288342F90, 0xFDE6364369F64,
        0xFDEEE708D514E, 0xFDF7401A6B42E, 0xFDFF46599ED40, 0xFE06FE4BC24F2,
        0xFE0E6C225A258, 0xFE1593C28B84C, 0xFE1C78CBC3F99, 0xFE231E9DB1CAA,
        0xFE29885DA1B91, 0xFE2FB8FB54186, 0xFE35B33558D4A, 0xFE3B799D0002A,
        0xFE410E99EAD7F, 0xFE46746D47734, 0xFE4BAD34C095C, 0xFE50BAED29524,
        0xFE559F74EBC78, 0xFE5A5C8E41212, 0xFE5EF3E138689, 0xFE6366FD91078,
        0xFE67B75C6D578, 0xFE6BE661E11AA, 0xFE6FF55E5F4F2, 0xFE73E5900A702,
        0xFE77B823E9E39, 0xFE7B6E37070A2, 0xFE7F08D774243, 0xFE8289053F08C,
        0xFE85EFB35173A, 0xFE893DC840864, 0xFE8C741F0CEBC, 0xFE8F9387D4EF6,
        0xFE929CC879B1D, 0xFE95909D388EA, 0xFE986FB939AA2, 0xFE9B3AC714866,
        0xFE9DF2694B6D5, 0xFEA0973ABE67C, 0xFEA329CF166A4, 0xFEA5AAB32952C,
        0xFEA81A6D5741A, 0xFEAA797DE1CF0, 0xFEACC85F3D920, 0xFEAF07865E63C,
        0xFEB13762FEC13, 0xFEB3585FE2A4A, 0xFEB56AE3162B4, 0xFEB76F4E284FA,
        0xFEB965FE62014, 0xFEBB4F4CF9D7C, 0xFEBD2B8F449D0, 0xFEBEFB16E2E3E,
        0xFEC0BE31EBDE8, 0xFEC2752B15A15, 0xFEC42049DAFD3, 0xFEC5BFD29F196,
        0xFEC75406CEEF4, 0xFEC8DD2500CB4, 0xFECA5B6911F12, 0xFECBCF0C427FE,
        0xFECD38454FB15, 0xFECE97488C8B3, 0xFECFEC47F91B7, 0xFED1377358528,
        0xFED278F844903, 0xFED3B10242F4C, 0xFED4DFBAD586E, 0xFED605498C3DD,
        0xFED721D414FE8, 0xFED8357E4A982, 0xFED9406A42CC8, 0xFEDA42B85B704,
        0xFEDB3C8746AB4, 0xFEDC2DF416652, 0xFEDD171A46E52, 0xFEDDF813C8AD3,
        0xFEDED0F909980, 0xFEDFA1E0FD414, 0xFEE06AE124BC4, 0xFEE12C0D95A06,
        0xFEE1E579006E0, 0xFEE29734B6524, 0xFEE34150AE4BC, 0xFEE3E3DB89B3C,
        0xFEE47EE2982F4, 0xFEE51271DB086, 0xFEE59E9407F41, 0xFEE623528B42E,
        0xFEE6A0B5897F1, 0xFEE716C3E077A, 0xFEE7858327B82, 0xFEE7ECF7B06BA,
        0xFEE84D2484AB2, 0xFEE8A60B66343, 0xFEE8F7ACCC851, 0xFEE94207E25DA,
        0xFEE9851A829EA, 0xFEE9C0E13485C, 0xFEE9F557273F4, 0xFEEA22762CCAE,
        0xFEEA4836B42AC, 0xFEEA668FC2D71, 0xFEEA7D76ED6FA, 0xFEEA8CE04FA0A,
        0xFEEA94BE8333B, 0xFEEA950296410, 0xFEEA8D9C0075E, 0xFEEA7E7897654,
        0xFEEA678481D24, 0xFEEA48AA29E83, 0xFEEA21D22E4DA, 0xFEE9F2E352024,
        0xFEE9BBC26AF2E, 0xFEE97C524F2E4, 0xFEE93473C0A3A, 0xFEE8E40557516,
        0xFEE88AE369C7A, 0xFEE828E7F3DFD, 0xFEE7BDEA7B888, 0xFEE749BFF37FF,
        0xFEE6CC3A9BD5E, 0xFEE64529E007E, 0xFEE5B45A32888, 0xFEE51994E57B6,
        0xFEE474A0006CF, 0xFEE3C53E12C50, 0xFEE30B2E02AD8, 0xFEE2462AD8205,
        0xFEE175EB83C5A, 0xFEE09A22A1447, 0xFEDFB27E349CC, 0xFEDEBEA76216C,
        0xFEDDBE422047E, 0xFEDCB0ECE39D3, 0xFEDB964042CF4, 0xFEDA6DCE938C9,
        0xFED937237E98D, 0xFED7F1C38A836, 0xFED69D2B9C02B, 0xFED538D06AE00,
        0xFED3C41DEA422, 0xFED23E76A2FD8, 0xFED0A732FE644, 0xFECEFDA07FE34,
        0xFECD4100EB7B8, 0xFECB708956EB4, 0xFEC98B61230C1, 0xFEC790A0DA978,
        0xFEC57F50F31FE, 0xFEC356686C962, 0xFEC114CB4B335, 0xFEBEB948E6FD0,
        0xFEBC429A0B692, 0xFEB9AF5EE0CDC, 0xFEB6FE1C98542, 0xFEB42D3AD1F9E,
        0xFEB13B00B2D4B, 0xFEAE2591A02E9, 0xFEAAEAE992257, 0xFEA788D8EE326,
        0xFEA3FCFFD73E5, 0xFEA044C8DD9F6, 0xFE9C5D62F563B, 0xFE9843BA947A4,
        0xFE93F471D4728, 0xFE8F6BD76C5D6, 0xFE8AA5DC4E8E6, 0xFE859E07AB1EA,
        0xFE804F690A940, 0xFE7AB488233C0, 0xFE74C751F6AA5, 0xFE6E8102AA202,
        0xFE67DA0B6ABD8, 0xFE60C9F38307E, 0xFE5947338F742, 0xFE51470977280,
        0xFE48BD436F458, 0xFE3F9BFFD1E37, 0xFE35D35EEB19C, 0xFE2B5122FE4FE,
        0xFE20003995557, 0xFE13C82788314, 0xFE068C4EE67B0, 0xFDF82B02B71AA,
        0xFDE87C57EFEAA, 0xFDD7509C63BFD, 0xFDC46E529BF13, 0xFDAF8F82E0282,
        0xFD985E1B2BA75, 0xFD7E6EF48CF04, 0xFD613ADBD650B, 0xFD40149E2F012,
        0xFD1A1A7B4C7AC, 0xFCEE204761F9E, 0xFCBA8D85E11B2, 0xFC7D26ECD2D22,
        0xFC32B2F1E22ED, 0xFBD6581C0B83A, 0xFB606C4005434, 0xFAC40582A2874,
        0xF9E971E014598, 0xF89FA48A41DFC, 0xF66C5F7F0302C, 0xF1A5A4B331C4A,
    ],
    dtype=np.uint64,
)
_RABS_MASK = np.uint64((1 << 52) - 1)
_IDX_MASK = np.uint64(0xFF)
_SHIFT_SIGN = np.uint64(8)
_SHIFT_RABS = np.uint64(9)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_words(base: int, hashes: np.ndarray) -> np.ndarray:
    """``SeedSequence((base, h)).generate_state(4, uint64)`` for every ``h``.

    Returns a ``(4, len(hashes))`` uint64 array.  ``SeedSequence`` turns
    ``(base, h)`` into the uint32 words ``base``, ``h``'s low word and,
    when non-zero, its high word.  Fewer words than the 4-word pool are
    padded by hashing zeros, so zero-padding to four words gives the
    same pool whatever ``h``'s length.  The pool is one ``(4, n)`` array:
    the fill steps hash every row at once, and the cross-mix steps of one
    source row update the other three rows at once, since none of them
    reads another's result.
    """
    words = np.zeros((_POOL, len(hashes)), dtype=np.uint32)
    words[0] = base
    words[1] = hashes & _U32
    words[2] = hashes >> _SHIFT_32
    pool = _hashmix(words, _MIX_XOR[:_POOL], _MIX_MULT[:_POOL])
    for src, (dst, step) in enumerate(_CROSS_MIX):
        fed = _hashmix(pool[src], _MIX_XOR[step], _MIX_MULT[step])
        pool[dst] = _mix(pool[dst], fed)
    out = _hashmix(np.concatenate((pool, pool)), _STATE_XOR, _STATE_MULT)
    out = out.astype(np.uint64)
    # generate_state pairs the uint32 words little-endian.
    return (out[1::2] << _SHIFT_32) | out[::2]


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi, inc_lo) -> tuple:
    """One PCG64 step, ``state·M + inc`` mod 2**128, on uint64 limbs.

    The low limbs' full 128-bit product is built from 32-bit halves;
    every other term only needs its low 64 bits, which uint64 wraps to.
    """
    m0, m1 = _M_LO_HALVES
    l0 = lo & _U32
    l1 = lo >> _SHIFT_32
    p01 = l0 * m1
    p10 = l1 * m0
    mid = ((l0 * m0) >> _SHIFT_32) + (p01 & _U32) + (p10 & _U32)
    high = l1 * m1 + (p01 >> _SHIFT_32) + (p10 >> _SHIFT_32) + (mid >> _SHIFT_32)
    new_lo = lo * _M_LO + inc_lo
    carry = (new_lo < inc_lo).astype(np.uint64)
    new_hi = high + hi * _M_LO + lo * _M_HI + inc_hi + carry
    return new_hi, new_lo


# One Generator whose state is overwritten before every scalar draw; the
# lock keeps a state and its draw together if two threads draw at once.
_DRAWER = np.random.Generator(np.random.PCG64(0))
_DRAWER_LOCK = threading.Lock()


def field_normals(seed: SeedLike, keys: Sequence[tuple]) -> np.ndarray:
    """``field_rng(seed, *key).standard_normal()`` for every key, batched."""
    return keyed_normals(seed, [stable_hash(*key) for key in keys])


def keyed_normals(seed: SeedLike, hashes: Sequence[int]) -> np.ndarray:
    """``field_normals`` for keys already hashed with :func:`stable_hash`."""
    return _keyed_normals(_field_base(seed), hashes)


def _keyed_normals(base: int, hashes: Sequence[int]) -> np.ndarray:
    """``default_rng((base, h)).standard_normal()`` for every ``h``.

    Seeding a fresh Generator per key costs ~24 µs, almost all of it in
    ``SeedSequence`` and PCG64 set-up.  This runs the whole batch in
    numpy, and every step is exact:

    * ``SeedSequence``'s entropy mix is uint32 arithmetic, which numpy
      wraps exactly as the C code does;
    * PCG64 seeding and the first step are 128-bit arithmetic mod 2**128
      on uint64 limbs, giving the state ``(inc + seed)·M + inc`` a new
      Generator holds and the state one step on;
    * the XSL-RR output of that state is the first 64-bit word, which
      numpy's ziggurat turns into ``±rabs·wi[idx]`` whenever
      ``rabs < ki[idx]``: one integer-to-double conversion (exact below
      2**52), one IEEE multiply and a sign flip, as in C.

    The ~1.5% of words the ziggurat rejects (strip 1, whose ``ki`` is
    0, and wedge or tail words) need further words; those keys are drawn
    by a Generator set to the seeded state, the same scalar draw as
    ``field_rng``.
    """
    hashes = np.array(hashes, dtype=np.uint64)
    # PCG64 reads its 128-bit seed and increment high word first, and
    # the increment is the latter shifted left once with its low bit set.
    seed_hi, seed_lo, init_hi, init_lo = _seed_words(base, hashes)
    inc_hi = (init_hi << _ONE) | (init_lo >> _SHIFT_63)
    inc_lo = (init_lo << _ONE) | _ONE
    start_lo = inc_lo + seed_lo
    start_hi = inc_hi + seed_hi + (start_lo < seed_lo).astype(np.uint64)
    state_hi, state_lo = _pcg_step(start_hi, start_lo, inc_hi, inc_lo)
    next_hi, next_lo = _pcg_step(state_hi, state_lo, inc_hi, inc_lo)

    xsl = next_hi ^ next_lo
    rot = next_hi >> _SHIFT_ROT
    word = (xsl >> rot) | (xsl << ((_SHIFT_64 - rot) & _SHIFT_63))
    idx = (word & _IDX_MASK).astype(np.intp)
    rabs = (word >> _SHIFT_RABS) & _RABS_MASK
    values = rabs.astype(np.float64) * _WI[idx]
    np.negative(values, out=values, where=((word >> _SHIFT_SIGN) & _ONE).astype(bool))

    rejected = np.flatnonzero(rabs >= _KI[idx])
    if len(rejected):
        _redraw(values, rejected, state_hi, state_lo, inc_hi, inc_lo)
    return values


def _redraw(values, rejected, state_hi, state_lo, inc_hi, inc_lo) -> None:
    """Scalar ``standard_normal`` for the ``rejected`` keys, from their seeded state."""
    bit_generator = _DRAWER.bit_generator
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    limbs = zip(
        state_hi[rejected].tolist(),
        state_lo[rejected].tolist(),
        inc_hi[rejected].tolist(),
        inc_lo[rejected].tolist(),
    )
    with _DRAWER_LOCK:
        for i, (s_hi, s_lo, i_hi, i_lo) in zip(rejected.tolist(), limbs):
            state["state"] = {"state": (s_hi << 64) | s_lo, "inc": (i_hi << 64) | i_lo}
            bit_generator.state = state
            values[i] = _DRAWER.standard_normal()
