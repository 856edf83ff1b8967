"""Golden CLI output: exact stdout and exit status of every subcommand.

Each subcommand runs on an accept case and a reject or bad-input case, in
text and kv format.  The strings pin the report bytes: field order, key
names, number formatting and witness wording.  Bad input prints nothing
on stdout and exits 2.
"""

import pytest

from galinv.cli import main

# argv -> (exit status, text stdout, kv stdout)
GOLDEN = [
    (["check-translation", "Dx1 + 3"], 0,
     "verdict: invariant\nn: 1\nm: 1\ncertificate: constant-coefficients\n",
     "verdict=invariant\nn=1\nm=1\ncertificate=constant-coefficients\n"),
    (["check-translation", "t*Dx1"], 1,
     "verdict: not-invariant\nn: 1\nm: 1\nwitness: shift (s=1, y=(0)) moves the coefficient at dt^0 dx^(1,)\n",
     "verdict=not-invariant\nn=1\nm=1\nwitness=shift (s=1, y=(0)) moves the coefficient at dt^0 dx^(1,)\n"),
    (["check-rotation", "Lap", "--n", "2"], 0,
     "verdict: invariant\nn: 2\nm: 2\ncertificate: generator-annihilation\n",
     "verdict=invariant\nn=2\nm=2\ncertificate=generator-annihilation\n"),
    (["check-rotation", "Dx1", "--n", "2"], 1,
     "verdict: not-invariant\nn: 2\nm: 1\nwitness: rotation [-1 0; 0 1] does not fix the operator\n",
     "verdict=not-invariant\nn=2\nm=1\nwitness=rotation [-1 0; 0 1] does not fix the operator\n"),
    # The other witness kinds: a swap, a later transposition, and the fixed
    # rotation in the (xi1, xi2) plane, alone and beside an unmoved axis.
    (["check-rotation", "3*Dx1^2", "--n", "2"], 1,
     "verdict: not-invariant\nn: 2\nm: 2\nwitness: rotation [0 1; 1 0] does not fix the operator\n",
     "verdict=not-invariant\nn=2\nm=2\nwitness=rotation [0 1; 1 0] does not fix the operator\n"),
    (["check-rotation", "Dx1^2+Dx2^2+2*Dx3^2", "--n", "3"], 1,
     "verdict: not-invariant\nn: 3\nm: 2\nwitness: rotation [1 0 0; 0 0 1; 0 1 0] does not fix the operator\n",
     "verdict=not-invariant\nn=3\nm=2\nwitness=rotation [1 0 0; 0 0 1; 0 1 0] does not fix the operator\n"),
    (["check-rotation", "Dx1^4+Dx2^4", "--n", "2"], 1,
     "verdict: not-invariant\nn: 2\nm: 4\nwitness: rotation [3/5 -4/5; 4/5 3/5] does not fix the operator\n",
     "verdict=not-invariant\nn=2\nm=4\nwitness=rotation [3/5 -4/5; 4/5 3/5] does not fix the operator\n"),
    (["check-rotation", "Dx1^4+Dx2^4+Dx3^4", "--n", "3"], 1,
     "verdict: not-invariant\nn: 3\nm: 4\nwitness: rotation [3/5 -4/5 0; 4/5 3/5 0; 0 0 1] does not fix the operator\n",
     "verdict=not-invariant\nn=3\nm=4\nwitness=rotation [3/5 -4/5 0; 4/5 3/5 0; 0 0 1] does not fix the operator\n"),
    (["check-boost", "2i*Dt + Lap", "--lambda", "1", "--n", "2"], 0,
     "verdict: invariant\nn: 2\nm: 2\ncertificate: zero-substitution-residue\n",
     "verdict=invariant\nn=2\nm=2\ncertificate=zero-substitution-residue\n"),
    (["check-boost", "Lap", "--lambda", "1", "--n", "2"], 1,
     "verdict: not-invariant\nn: 2\nm: 2\nwitness: boost v=(-3,0) breaks commutation at tau=-1/3, xi=(-3/2,2)\n",
     "verdict=not-invariant\nn=2\nm=2\nwitness=boost v=(-3,0) breaks commutation at tau=-1/3, xi=(-3/2,2)\n"),
    (["check-boost", "Dx1^2 + Dx2", "--lambda", "0", "--n", "2"], 0,
     "verdict: invariant\nn: 2\nm: 2\ncertificate: zero-substitution-residue\n",
     "verdict=invariant\nn=2\nm=2\ncertificate=zero-substitution-residue\n"),
    (["check-boost", "Dx1^2 + Lap", "--lambda", "1", "--n", "2"], 1,
     "verdict: not-invariant\nn: 2\nm: 2\nwitness: boost v=(-3,0) breaks commutation at tau=-1/3, xi=(-3/2,2)\n",
     "verdict=not-invariant\nn=2\nm=2\nwitness=boost v=(-3,0) breaks commutation at tau=-1/3, xi=(-3/2,2)\n"),
    (["classify2", "2i*Dt + Lap", "--n", "3"], 0,
     "verdict: accept\nalpha: 1\nbeta: 0\nlambda: 1\ntheta: c + v.x - (1/2)t|v|^2\nn: 3\nm: 2\n",
     "verdict=accept\nalpha=1\nbeta=0\nlambda=1\ntheta=c + v.x - (1/2)t|v|^2\nn=3\nm=2\n"),
    (["classify2", "Dt - Lap", "--n", "2"], 1,
     "verdict: reject\nstage: lambda-not-real\nlambda: 1/2i\nn: 2\nm: 2\n",
     "verdict=reject\nstage=lambda-not-real\nlambda=1/2i\nn=2\nm=2\n"),
    (["classify2", "Dx1*Dx2", "--n", "2"], 1,
     "verdict: reject\nstage: rotation-failure\nn: 2\nm: 2\nwitness: rotation [-1 0; 0 1] does not fix the operator\n",
     "verdict=reject\nstage=rotation-failure\nn=2\nm=2\nwitness=rotation [-1 0; 0 1] does not fix the operator\n"),
    (["classify2", "Lap + 3", "--n", "2"], 0,
     "verdict: accept\nalpha: 1\nbeta: 3\nlambda: 0\ntheta: x-independent\nn: 2\nm: 2\n",
     "verdict=accept\nalpha=1\nbeta=3\nlambda=0\ntheta=x-independent\nn=2\nm=2\n"),
    (["classifym", "(2i*Dt + Lap)^2", "--lambda", "1", "--n", "2"], 0,
     "verdict: accept\nlambda: 1\nn: 2\nm: 4\ncoeffs: 0,0,1\n",
     "verdict=accept\nlambda=1\nn=2\nm=4\ncoeffs=0,0,1\n"),
    (["classifym", "Lap^2", "--lambda", "1", "--n", "2"], 1,
     "verdict: reject\nstage: residual-xi-dependence\nlambda: 1\nn: 2\nm: 4\n",
     "verdict=reject\nstage=residual-xi-dependence\nlambda=1\nn=2\nm=4\n"),
    (["synthesize", "--lambda", "1", "--coeffs", "0,1", "--n", "2"], 0,
     "verdict: ok\nlambda: 1\nn: 2\nm: 2\ncoeffs: 0,1\noperator: Dx1^2 + Dx2^2 + 2i*Dt\n",
     "verdict=ok\nlambda=1\nn=2\nm=2\ncoeffs=0,1\noperator=Dx1^2 + Dx2^2 + 2i*Dt\n"),
    (["synthesize", "--lambda", "1", "--coeffs", "0,0", "--n", "2"], 2,
     "",
     ""),
    (["theta", "--lambda", "1", "--v", "1,2"], 0,
     "verdict: ok\nlambda: 1\ntheta: -5/2*t + x1 + 2*x2\nn: 2\n",
     "verdict=ok\nlambda=1\ntheta=-5/2*t + x1 + 2*x2\nn=2\n"),
    # theta's integer numerators over one denominator: lam, c and v each have their own.
    (["theta", "--lambda", "1/2", "--c", "1/3", "--v", "2/3,1/2", "--n", "2"], 0,
     "verdict: ok\nlambda: 1/2\ntheta: -25/144*t + 1/3*x1 + 1/4*x2 + 1/3\nn: 2\n",
     "verdict=ok\nlambda=1/2\ntheta=-25/144*t + 1/3*x1 + 1/4*x2 + 1/3\nn=2\n"),
    (["theta", "--lambda", "1/2", "--c", "3"], 0,
     "verdict: ok\nlambda: 1/2\ntheta: c + (1/2)v.x - (1/4)t|v|^2\n",
     "verdict=ok\nlambda=1/2\ntheta=c + (1/2)v.x - (1/4)t|v|^2\n"),
    (["theta", "--lambda", "0", "--v", "1,2", "--n", "2"], 0,
     "verdict: ok\nlambda: 0\ntheta: x-independent\n",
     "verdict=ok\nlambda=0\ntheta=x-independent\n"),
    (["theta", "--lambda", "0", "--v", "1,2,3", "--n", "2"], 2,
     "",
     ""),
    (["oracle", "2i*Dt + Lap", "--n", "2", "--lambda", "1", "--seed", "7", "--count", "3"], 0,
     "verdict: invariant\nlambda: 1\nn: 2\nm: 2\nseed: 7\ncertificate: zero defect on 3 sampled boosts\n",
     "verdict=invariant\nlambda=1\nn=2\nm=2\nseed=7\ncertificate=zero defect on 3 sampled boosts\n"),
    (["oracle", "Lap", "--n", "2", "--lambda", "1"], 1,
     "verdict: not-invariant\nlambda: 1\nn: 2\nm: 2\nseed: 94281\nwitness: defect at v=(2/3,-1): 4/3*xi1 - 2*xi2 + 13/9\n",
     "verdict=not-invariant\nlambda=1\nn=2\nm=2\nseed=94281\nwitness=defect at v=(2/3,-1): 4/3*xi1 - 2*xi2 + 13/9\n"),
    # Variable coefficients: the left side's amplitude depends on x1 or t,
    # so its pull-back and the coefficient products both do work.
    (["oracle", "x1*Dt + Lap", "--n", "2", "--lambda", "1"], 1,
     "verdict: not-invariant\nlambda: 1\nn: 2\nm: 2\nseed: 94281\nwitness: defect at v=(2/3,-1): "
     "-2/3i*t*tau + 2/3i*x1*xi1 - i*x1*xi2 + 13/18i*x1 + 4/3*xi1 - 2*xi2 + 13/9\n",
     "verdict=not-invariant\nlambda=1\nn=2\nm=2\nseed=94281\nwitness=defect at v=(2/3,-1): "
     "-2/3i*t*tau + 2/3i*x1*xi1 - i*x1*xi2 + 13/18i*x1 + 4/3*xi1 - 2*xi2 + 13/9\n"),
    (["oracle", "t*Dt", "--n", "1", "--lambda", "0"], 1,
     "verdict: not-invariant\nlambda: 0\nn: 1\nm: 1\nseed: 94281\nwitness: defect at v=(2/3): 2/3i*t*xi1\n",
     "verdict=not-invariant\nlambda=0\nn=1\nm=1\nseed=94281\nwitness=defect at v=(2/3): 2/3i*t*xi1\n"),
    # The default seed draws v = 0 twice first at n = 1; the identity boost
    # commutes with every operator, so it is drawn again, not counted.
    (["oracle", "Dt", "--lambda", "1", "--n", "1", "--count", "2"], 1,
     "verdict: not-invariant\nlambda: 1\nn: 1\nm: 1\nseed: 94281\nwitness: defect at v=(2/3): 2/3i*xi1 + 2/9i\n",
     "verdict=not-invariant\nlambda=1\nn=1\nm=1\nseed=94281\nwitness=defect at v=(2/3): 2/3i*xi1 + 2/9i\n"),
    # A 9-term defect: the packed derivative sum of both sides, pulled back.
    (["oracle", "(2i*Dt+Lap)^2 + Dt^2", "--n", "2", "--lambda", "1"], 1,
     "verdict: not-invariant\nlambda: 1\nn: 2\nm: 4\nseed: 94281\nwitness: defect at v=(2/3,-1): "
     "-4/3*tau*xi1 + 2*tau*xi2 + 4/9*xi1^2 - 4/3*xi1*xi2 + xi2^2 - 13/9*tau + 26/27*xi1 - 13/9*xi2 + 169/324\n",
     "verdict=not-invariant\nlambda=1\nn=2\nm=4\nseed=94281\nwitness=defect at v=(2/3,-1): "
     "-4/3*tau*xi1 + 2*tau*xi2 + 4/9*xi1^2 - 4/3*xi1*xi2 + xi2^2 - 13/9*tau + 26/27*xi1 - 13/9*xi2 + 169/324\n"),
    # An order-16 symbol evaluated at the boost witness's seeded points.
    (["check-boost", "(2i*Dt+Lap)^8 + Dt", "--lambda", "1", "--n", "3"], 1,
     "verdict: not-invariant\nn: 3\nm: 16\nwitness: boost v=(1,-2/3,3/2) breaks commutation at tau=-3/2, xi=(2,-3,0)\n",
     "verdict=not-invariant\nn=3\nm=16\nwitness=boost v=(1,-2/3,3/2) breaks commutation at tau=-3/2, xi=(2,-3,0)\n"),
    # Boost witnesses at n = 1 and 3 and lam = -1/2 and 2; at lam = -1/2 the
    # first seeded point leaves the symbol's value unchanged, so a later one witnesses.
    (["check-boost", "9*Dt + 2i*Dx1^2 + 4*Dx1^3", "--lambda", "-1/2", "--n", "1"], 1,
     "verdict: not-invariant\nn: 1\nm: 3\nwitness: boost v=(-2/3) breaks commutation at tau=0, xi=(1)\n",
     "verdict=not-invariant\nn=1\nm=3\nwitness=boost v=(-2/3) breaks commutation at tau=0, xi=(1)\n"),
    (["check-boost", "2i*Dt + Dx1", "--lambda", "2", "--n", "1"], 1,
     "verdict: not-invariant\nn: 1\nm: 1\nwitness: boost v=(-3/2) breaks commutation at tau=2/3, xi=(-1/3)\n",
     "verdict=not-invariant\nn=1\nm=1\nwitness=boost v=(-3/2) breaks commutation at tau=2/3, xi=(-1/3)\n"),
    (["check-boost", "2*Dx3^2 + Dx1*Dx3", "--lambda", "-1/2", "--n", "3"], 1,
     "verdict: not-invariant\nn: 3\nm: 2\nwitness: boost v=(-3/2,-1,1) breaks commutation at tau=-2/3, xi=(-1/2,-1,1/2)\n",
     "verdict=not-invariant\nn=3\nm=2\nwitness=boost v=(-3/2,-1,1) breaks commutation at tau=-2/3, xi=(-1/2,-1,1/2)\n"),
    (["check-boost", "(2i*Dt + Lap)^2 + Dx3", "--lambda", "2", "--n", "3"], 1,
     "verdict: not-invariant\nn: 3\nm: 4\nwitness: boost v=(1,-2/3,3/2) breaks commutation at tau=-3/2, xi=(2,-3,0)\n",
     "verdict=not-invariant\nn=3\nm=4\nwitness=boost v=(1,-2/3,3/2) breaks commutation at tau=-3/2, xi=(2,-3,0)\n"),
]


@pytest.mark.parametrize("argv, status, text, kv", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(capsys, argv, status, text, kv):
    for fmt, expected in (("text", text), ("kv", kv)):
        assert main([*argv, "--format", fmt]) == status
        assert capsys.readouterr().out == expected


def test_golden_covers_every_subcommand():
    from galinv.cli import _COMMANDS

    assert {argv[0] for argv, *_ in GOLDEN} == set(_COMMANDS)
    for command in _COMMANDS:
        statuses = {status for argv, status, *_ in GOLDEN if argv[0] == command}
        assert 0 in statuses and statuses & {1, 2}
