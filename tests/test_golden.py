"""CLI stdout pinned byte for byte for a small command matrix.

A difference here changes the output contract; a refactor must leave every
text as it is.
"""

import pytest

from bertrand_lab.cli import SEED_ENV_VAR, main

GOLDEN = {
    "bertrand --samples 2000 --seed 7": (
        "model,exact_p,p_hat,ci_low,ci_high,n,seed\n"
        "midpoint_uniform,0.25,0.241,0.222763899,0.260229131,2000,7\n"
        "tangent_angle_uniform,0.333333333,0.323,0.302862067,0.343816568,2000,7\n"
        "polar_uniform,0.5,0.5135,0.491590036,0.535358203,2000,7\n"
    ),
    "bertrand --samples 2000 --seed 7 --format json": (
        "{\n"
        '  "rows": [\n'
        "    {\n"
        '      "model": "midpoint_uniform",\n'
        '      "exact_p": 0.25,\n'
        '      "p_hat": 0.241,\n'
        '      "ci_low": 0.222763899,\n'
        '      "ci_high": 0.260229131,\n'
        '      "n": 2000,\n'
        '      "seed": 7\n'
        "    },\n"
        "    {\n"
        '      "model": "tangent_angle_uniform",\n'
        '      "exact_p": 0.333333333,\n'
        '      "p_hat": 0.323,\n'
        '      "ci_low": 0.302862067,\n'
        '      "ci_high": 0.343816568,\n'
        '      "n": 2000,\n'
        '      "seed": 7\n'
        "    },\n"
        "    {\n"
        '      "model": "polar_uniform",\n'
        '      "exact_p": 0.5,\n'
        '      "p_hat": 0.5135,\n'
        '      "ci_low": 0.491590036,\n'
        '      "ci_high": 0.535358203,\n'
        '      "n": 2000,\n'
        '      "seed": 7\n'
        "    }\n"
        "  ]\n"
        "}\n"
    ),
    "bertrand --pushforward --samples 1000": (
        "model,exact_p,p_hat,ci_low,ci_high,n,seed\n"
        "midpoint_uniform,0.25,0.245,0.219352396,0.272599251,1000,42\n"
        "tangent_angle_uniform,0.333333333,0.304,0.276285269,0.33321482,1000,42\n"
        "polar_uniform,0.5,0.497,0.466081635,0.527941325,1000,42\n"
        "midpoint_to_polar_pushforward,0.25,,,,,\n"
    ),
    "buffon --samples 2000 --seed 7": (
        "model,exact_p,p_hat,ci_low,ci_high,pi_estimate,pi_ci_low,pi_ci_high,n,seed\n"
        "center_angle,0.636619772,0.643,0.621746461,0.663705263,3.11041991,3.01338578,3.21674529,2000,7\n"
        "endpoints,0.5,0.5215,0.499586944,0.543330623,3.83509108,3.68099996,4.00330718,2000,7\n"
    ),
    "squares --finite 100": (
        "model,threshold,probability\n"
        "uniform_x,50,0.5\n"
        "naive_uniform_square,2500,0.75\n"
        "pushforward_square,2500,0.5\n"
        "counting_plain,50,1/2\n"
        "counting_squared,2500,1/2\n"
    ),
    "rationals sample --law degenerate:3 --samples 100 --seed 7": (
        "law,q,count,frequency,n,seed\n"
        "degenerate:3,0/1,31,0.31,100,7\n"
        "degenerate:3,1/1,30,0.3,100,7\n"
        "degenerate:3,1/3,25,0.25,100,7\n"
        "degenerate:3,2/3,14,0.14,100,7\n"
    ),
    # a law text with a comma: quoted in CSV, a plain string in JSON
    "rationals sample --law custom:1=0.5,3=0.5 --samples 20 --seed 7": (
        "law,q,count,frequency,n,seed\n"
        '"custom:1=0.5,3=0.5",0/1,8,0.4,20,7\n'
        '"custom:1=0.5,3=0.5",1/1,7,0.35,20,7\n'
        '"custom:1=0.5,3=0.5",1/3,4,0.2,20,7\n'
        '"custom:1=0.5,3=0.5",2/3,1,0.05,20,7\n'
    ),
    "rationals sample --law custom:1=0.5,3=0.5 --samples 20 --seed 7 --format json": (
        "{\n"
        '  "rows": [\n'
        "    {\n"
        '      "law": "custom:1=0.5,3=0.5",\n'
        '      "q": "0/1",\n'
        '      "count": 8,\n'
        '      "frequency": 0.4,\n'
        '      "n": 20,\n'
        '      "seed": 7\n'
        "    },\n"
        "    {\n"
        '      "law": "custom:1=0.5,3=0.5",\n'
        '      "q": "1/1",\n'
        '      "count": 7,\n'
        '      "frequency": 0.35,\n'
        '      "n": 20,\n'
        '      "seed": 7\n'
        "    },\n"
        "    {\n"
        '      "law": "custom:1=0.5,3=0.5",\n'
        '      "q": "1/3",\n'
        '      "count": 4,\n'
        '      "frequency": 0.2,\n'
        '      "n": 20,\n'
        '      "seed": 7\n'
        "    },\n"
        "    {\n"
        '      "law": "custom:1=0.5,3=0.5",\n'
        '      "q": "2/3",\n'
        '      "count": 1,\n'
        '      "frequency": 0.05,\n'
        '      "n": 20,\n'
        '      "seed": 7\n'
        "    }\n"
        "  ]\n"
        "}\n"
    ),
    "rationals converge --ks 10,100": (
        "family,k,pmf_sup,pmf_sup_log_k,harmonic_number,mean_reciprocal,interval_error\n"
        "geometric,10,0.1,0.230258509,2.92896825,0.255842788,0.137836463\n"
        "geometric,100,0.01,0.0460517019,5.18737752,0.0465168706,0.0284342821\n"
    ),
    # series long enough to span many denominator chunks
    "rationals cdf --x 0.37 --law geometric:1e-5": (
        "law,x,value\n"
        "geometric:1e-5,0.37,0.370014318\n"
    ),
    "rationals interval --a 0.2 --b 0.7 --law geometric:1e-5": (
        "law,a,b,probability\n"
        "geometric:1e-5,0.2,0.7,0.499939543\n"
    ),
    "rationals atom --q 3/7 --law geometric:1e-5": (
        "law,q,probability\n"
        "geometric:1e-5,3/7,1.33628671e-05\n"
    ),
    "rationals cdf --x 0.37 --law poisson:10000": (
        "law,x,value\n"
        "poisson:10000,0.37,0.370013499\n"
    ),
    "rationals converge --ks 10,100,1000,10000,100000": (
        "family,k,pmf_sup,pmf_sup_log_k,harmonic_number,mean_reciprocal,interval_error\n"
        "geometric,10,0.1,0.230258509,2.92896825,0.255842788,0.137836463\n"
        "geometric,100,0.01,0.0460517019,5.18737752,0.0465168706,0.0284342821\n"
        "geometric,1000,0.001,0.00690775528,7.48547086,0.00691466995,0.0045171846\n"
        "geometric,10000,0.0001,0.000921034037,9.78760604,0.00092112615,0.000623577858\n"
        "geometric,100000,1e-05,0.000115129255,12.0901461,0.000115130406,7.96157778e-05\n"
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_bytes(command, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(command.split()) == 0
    assert capsys.readouterr().out == GOLDEN[command]
