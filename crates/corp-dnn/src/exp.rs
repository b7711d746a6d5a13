//! `exp` for the sigmoid: a port of the `exp` glibc's libm runs on
//! x86-64 hardware with FMA, bit for bit, without the call.
//!
//! glibc (2.28 and later) ships the `exp` of ARM's optimized-routines:
//! `x = k ln2/N + r` with `N = 128` and `|r| <= ln2/2N`, then
//! `exp(x) = 2^(k/N) exp(r)` with `2^(k/N)` from a 128-entry table (each
//! entry a correction `tail` and the bits of the scale) and `exp(r) - 1`
//! from a degree-5 polynomial. On a machine with AVX2 and FMA — every
//! machine the workspace's `x86-64-v3` build runs on — the ifunc resolver
//! picks its FMA build, `__exp_fma`, which fuses exactly eight of the
//! multiply-adds. [`exp`] performs the same operations in the same order
//! with [`f64::mul_add`] at those eight places, so it returns the libm
//! result on every input (`exp_matches_libm_*` below diff it against
//! [`f64::exp`]). It only ports the fast path: `|x|` outside
//! `[2^-54, 512)` — tiny, huge, infinite or NaN — goes to [`f64::exp`],
//! which is where glibc also leaves its fast path.
//!
//! Constants and table are the words of `__exp_data` as they appear in
//! `libm.so.6` (Debian glibc 2.36: `objdump -d` shows `__exp_fma` reading
//! them; `objdump -s` dumps them). `f64::mul_add` is a correctly rounded
//! fused multiply-add on every target (an instruction or a libm `fma`
//! call), so these bits do not depend on the target CPU level.
//!
//! Without the call the sigmoid can run over a row of pre-activations in
//! one branch-free loop ([`exp_in_range`]), which the compiler is free to
//! vectorise; nothing in it changes a bit.

/// `N / ln 2` with `N = 128`.
const INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
/// `-ln 2 / N`, high part.
const NEG_LN2_HI_N: f64 = f64::from_bits(0xbf76_2e42_fefa_0000);
/// `-ln 2 / N`, low part.
const NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0c_f79a_bc9e_3b3a);
/// `1.5 * 2^52`: adding it rounds `x N / ln 2` to the integer `k`, which
/// then sits in the low bits of the sum.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `exp(r) - 1 ~ r + C2 r^2 + C3 r^3 + C4 r^4 + C5 r^5`.
const C2: f64 = f64::from_bits(0x3fdf_ffff_ffff_fdbd);
const C3: f64 = f64::from_bits(0x3fc5_5555_5555_543c);
const C4: f64 = f64::from_bits(0x3fa5_5555_cf17_2b91);
const C5: f64 = f64::from_bits(0x3f81_1111_67a4_d017);

/// `2^(i/N)` for `i in 0..N` as `(tail, bits)` pairs: `bits + (k << 45)`
/// is the scale `2^(k/N)` (up to rounding) and `tail` its relative
/// correction.
#[rustfmt::skip]
const TABLE: [u64; 256] = [
    0x0000_0000_0000_0000, 0x3ff0_0000_0000_0000,
    0x3c9b_3b4f_1a88_bf6e, 0x3fef_f63d_a9fb_3335,
    0xbc71_6013_9cd8_dc5d, 0x3fef_ec9a_3e77_8061,
    0xbc90_5e7a_1087_66d1, 0x3fef_e315_e86e_7f85,
    0x3c8c_d252_3567_f613, 0x3fef_d9b0_d315_8574,
    0xbc8b_ce80_23f9_8efa, 0x3fef_d06b_29dd_f6de,
    0x3c60_f74e_61e6_c861, 0x3fef_c745_1875_9bc8,
    0x3c90_a3e4_5b33_d399, 0x3fef_be3e_cac6_f383,
    0x3c97_9aa6_5d83_7b6d, 0x3fef_b558_6cf9_890f,
    0x3c8e_b51a_92fd_effc, 0x3fef_ac92_2b72_47f7,
    0x3c3e_be3d_702f_9cd1, 0x3fef_a3ec_32d3_d1a2,
    0xbc6a_0334_8990_6e0b, 0x3fef_9b66_affe_d31b,
    0xbc95_5652_2a2f_bd0e, 0x3fef_9301_d012_5b51,
    0xbc50_80ef_8c4e_ea55, 0x3fef_8abd_c06c_31cc,
    0xbc91_c923_b9d5_f416, 0x3fef_829a_aea9_2de0,
    0x3c80_d3e3_e95c_55af, 0x3fef_7a98_c8a5_8e51,
    0xbc80_1b15_eaa5_9348, 0x3fef_72b8_3c7d_517b,
    0xbc8f_1ff0_55de_323d, 0x3fef_6af9_388c_8dea,
    0x3c8b_898c_3f13_53bf, 0x3fef_635b_eb6f_cb75,
    0xbc96_d99c_7611_eb26, 0x3fef_5be0_8404_5cd4,
    0x3c9a_ecf7_3e3a_2f60, 0x3fef_5487_3168_b9aa,
    0xbc8f_e782_cb86_389d, 0x3fef_4d50_22fc_d91d,
    0x3c8a_6f41_44a6_c38d, 0x3fef_463b_8862_8cd6,
    0x3c80_7a05_b0e4_047d, 0x3fef_3f49_917d_dc96,
    0x3c96_8efd_e3a8_a894, 0x3fef_387a_6e75_6238,
    0x3c87_5e18_f274_487d, 0x3fef_31ce_4fb2_a63f,
    0x3c80_472b_981f_e7f2, 0x3fef_2b45_65e2_7cdd,
    0xbc96_b87b_3f71_085e, 0x3fef_24df_e1f5_6381,
    0x3c82_f7e1_6d09_ab31, 0x3fef_1e9d_f51f_dee1,
    0xbc3d_219b_1a6f_bffa, 0x3fef_187f_d0da_d990,
    0x3c8b_3782_720c_0ab4, 0x3fef_1285_a6e4_030b,
    0x3c6e_1492_89ce_cb8f, 0x3fef_0caf_a93e_2f56,
    0x3c83_4d75_4db0_abb6, 0x3fef_06fe_0a31_b715,
    0x3c86_4201_e2ac_744c, 0x3fef_0170_fc4c_d831,
    0x3c8f_dd39_5dd3_f84a, 0x3fee_fc08_b264_16ff,
    0xbc86_a380_3b8e_5b04, 0x3fee_f6c5_5f92_9ff1,
    0xbc92_4aed_cc4b_5068, 0x3fee_f1a7_373a_a9cb,
    0xbc99_07f8_1b51_2d8e, 0x3fee_ecae_6d05_d866,
    0xbc71_d1e8_3e94_36d2, 0x3fee_e7db_34e5_9ff7,
    0xbc99_1919_b3ce_1b15, 0x3fee_e32d_c313_a8e5,
    0x3c85_9f48_a72a_4c6d, 0x3fee_dea6_4c12_3422,
    0xbc93_1260_7a28_698a, 0x3fee_da45_04ac_801c,
    0xbc58_a78f_4817_895b, 0x3fee_d60a_21f7_2e2a,
    0xbc7c_2c9b_6749_9a1b, 0x3fee_d1f5_d950_a897,
    0x3c43_63ed_60c2_ac11, 0x3fee_ce08_6061_892d,
    0x3c96_6609_3b06_64ef, 0x3fee_ca41_ed1d_0057,
    0x3c6e_cce1_daa1_0379, 0x3fee_c6a2_b5c1_3cd0,
    0x3c93_ff8e_3f0f_1230, 0x3fee_c32a_f0d7_d3de,
    0x3c76_90ce_bb7a_afb0, 0x3fee_bfda_d536_2a27,
    0x3c93_1dbd_eb54_e077, 0x3fee_bcb2_99fd_dd0d,
    0xbc8f_9434_0071_a38e, 0x3fee_b9b2_769d_2ca7,
    0xbc87_decc_dc93_a349, 0x3fee_b6da_a2cf_6642,
    0xbc78_dec6_bd0f_385f, 0x3fee_b42b_569d_4f82,
    0xbc86_1246_ec7b_5cf6, 0x3fee_b1a4_ca5d_920f,
    0x3c93_3505_18fd_d78e, 0x3fee_af47_36b5_27da,
    0x3c7b_98b7_2f8a_9b05, 0x3fee_ad12_d497_c7fd,
    0x3c90_63e1_e21c_5409, 0x3fee_ab07_dd48_5429,
    0x3c34_c785_5019_c6ea, 0x3fee_a926_8a59_46b7,
    0x3c94_32e6_2b64_c035, 0x3fee_a76f_15ad_2148,
    0xbc8c_e44a_6199_769f, 0x3fee_a5e1_b976_dc09,
    0xbc8c_33c5_3bef_4da8, 0x3fee_a47e_b03a_5585,
    0xbc84_5378_892b_e9ae, 0x3fee_a346_34cc_c320,
    0xbc93_cedd_7856_5858, 0x3fee_a238_8255_2225,
    0x3c57_10aa_807e_1964, 0x3fee_a155_d44c_a973,
    0xbc93_b3ef_bf5e_2228, 0x3fee_a09e_667f_3bcd,
    0xbc6a_12ad_8734_b982, 0x3fee_a012_750b_dabf,
    0xbc63_67ef_b86d_a9ee, 0x3fee_9fb2_3c65_1a2f,
    0xbc80_dc3d_54e0_8851, 0x3fee_9f7d_f951_9484,
    0xbc78_1f64_7e5a_3ecf, 0x3fee_9f75_e8ec_5f74,
    0xbc86_ee4a_c08b_7db0, 0x3fee_9f9a_48a5_8174,
    0xbc86_1932_1e55_e68a, 0x3fee_9feb_5642_67c9,
    0x3c90_9ccb_5e09_d4d3, 0x3fee_a069_4fde_5d3f,
    0xbc7b_32dc_b94d_a51d, 0x3fee_a114_73eb_0187,
    0x3c94_ecfd_5467_c06b, 0x3fee_a1ed_0130_c132,
    0x3c65_ebe1_abd6_6c55, 0x3fee_a2f3_36cf_4e62,
    0xbc88_a1c5_2fb3_cf42, 0x3fee_a427_543e_1a12,
    0xbc93_69b6_f13b_3734, 0x3fee_a589_994c_ce13,
    0xbc80_5e84_3a19_ff1e, 0x3fee_a71a_4623_c7ad,
    0xbc94_d450_d872_576e, 0x3fee_a8d9_9b44_92ed,
    0x3c90_ad67_5b0e_8a00, 0x3fee_aac7_d98a_6699,
    0x3c8d_b72f_c1f0_eab4, 0x3fee_ace5_422a_a0db,
    0xbc65_b660_9cc5_e7ff, 0x3fee_af32_16b5_448c,
    0x3c7b_f683_59f3_5f44, 0x3fee_b1ae_9915_7736,
    0xbc93_091f_a71e_3d83, 0x3fee_b45b_0b91_ffc6,
    0xbc5d_a9b8_8b6c_1e29, 0x3fee_b737_b0cd_c5e5,
    0xbc6c_23f9_7c90_b959, 0x3fee_ba44_cbc8_520f,
    0xbc92_4343_22f4_f9aa, 0x3fee_bd82_9fde_4e50,
    0xbc85_ca6c_d766_8e4b, 0x3fee_c0f1_70ca_07ba,
    0x3c71_affc_2b91_ce27, 0x3fee_c491_82a3_f090,
    0x3c6d_d235_e10a_73bb, 0x3fee_c863_19e3_2323,
    0xbc87_c504_2262_2263, 0x3fee_cc66_7b5d_e565,
    0x3c8b_1c86_e3e2_31d5, 0x3fee_d09b_ec4a_2d33,
    0xbc91_bbd1_d3bc_bb15, 0x3fee_d503_b23e_255d,
    0x3c90_cc31_9cee_31d2, 0x3fee_d99e_1330_b358,
    0x3c84_6984_6e73_5ab3, 0x3fee_de6b_5579_fdbf,
    0xbc82_dfcd_978e_9db4, 0x3fee_e36b_bfd3_f37a,
    0x3c8c_1a77_92cb_3387, 0x3fee_e89f_995a_d3ad,
    0xbc90_7b8f_4ad1_d9fa, 0x3fee_ee07_298d_b666,
    0xbc55_c3d9_56dc_aeba, 0x3fee_f3a2_b84f_15fb,
    0xbc90_a40e_3da6_f640, 0x3fee_f972_8de5_593a,
    0xbc68_d6f4_38ad_9334, 0x3fee_ff76_f2fb_5e47,
    0xbc91_eee2_6b58_8a35, 0x3fef_05b0_30a1_064a,
    0x3c74_ffd7_0a5f_ddcd, 0x3fef_0c1e_904b_c1d2,
    0xbc91_bdfb_fa92_98ac, 0x3fef_12c2_5bd7_1e09,
    0x3c73_6eae_30af_0cb3, 0x3fef_199b_dd85_529c,
    0x3c8e_e332_5c9f_fd94, 0x3fef_20ab_5fff_d07a,
    0x3c84_e08f_d109_59ac, 0x3fef_27f1_2e57_d14b,
    0x3c63_cdaf_384e_1a67, 0x3fef_2f6d_9406_e7b5,
    0x3c67_6b2c_6c92_1968, 0x3fef_3720_dcef_9069,
    0xbc80_8a18_83cc_b5d2, 0x3fef_3f0b_555d_c3fa,
    0xbc8f_ad5d_3fff_fa6f, 0x3fef_472d_4a07_897c,
    0xbc90_0dae_3875_a949, 0x3fef_4f87_080d_89f2,
    0x3c74_a385_a63d_07a7, 0x3fef_5818_dcfb_a487,
    0xbc82_919e_2040_220f, 0x3fef_60e3_16c9_8398,
    0x3c8e_5a50_d5c1_92ac, 0x3fef_69e6_03db_3285,
    0x3c84_3a59_ac01_6b4b, 0x3fef_7321_f301_b460,
    0xbc82_d521_07b4_3e1f, 0x3fef_7c97_337b_9b5f,
    0xbc89_2ab9_3b47_0dc9, 0x3fef_8646_14f5_a129,
    0x3c74_b604_603a_88d3, 0x3fef_902e_e78b_3ff6,
    0x3c83_c5ec_519d_7271, 0x3fef_9a51_fbc7_4c83,
    0xbc8f_f712_8fd3_91f0, 0x3fef_a4af_a2a4_90da,
    0xbc8d_ae98_e223_747d, 0x3fef_af48_2d8e_67f1,
    0x3c8e_c3bc_41aa_2008, 0x3fef_ba1b_ee61_5a27,
    0x3c84_2b94_c3a9_eb32, 0x3fef_c52b_376b_ba97,
    0x3c8a_64a9_31d1_85ee, 0x3fef_d076_5b6e_4540,
    0xbc8e_37ba_e43b_e3ed, 0x3fef_dbfd_ad9c_be14,
    0x3c77_893b_4d91_cd9d, 0x3fef_e7c1_819e_90d8,
    0x3c53_05c1_4160_cc89, 0x3fef_f3c2_2b8f_71f1,
];

/// Top 12 bits (sign cleared) of `0x1p-54` and of `512.0`: the fast path
/// is `TOP_TINY <= abstop < TOP_HUGE`.
const TOP_TINY: u64 = 0x3c9;
const TOP_HUGE: u64 = 0x408;

/// Whether `x` takes glibc's fast path, `2^-54 <= |x| < 512`.
#[inline]
pub(crate) fn in_range(x: f64) -> bool {
    let abstop = (x.to_bits() >> 52) & 0x7ff;
    abstop.wrapping_sub(TOP_TINY) < TOP_HUGE - TOP_TINY
}

/// `e^x`, bit-identical to glibc's `exp` on FMA hardware.
#[inline]
pub(crate) fn exp(x: f64) -> f64 {
    if in_range(x) {
        exp_in_range(x)
    } else {
        x.exp()
    }
}

/// The fast path of [`exp`]: branch-free, and only correct where
/// [`in_range`] holds.
#[inline(always)]
pub(crate) fn exp_in_range(x: f64) -> f64 {
    // k = round(x N / ln2) in the low bits of kd; r = x - k ln2/N in two
    // fused steps.
    let kd = x.mul_add(INV_LN2_N, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = kd.mul_add(NEG_LN2_LO_N, kd.mul_add(NEG_LN2_HI_N, x));
    // 2^(k/N) ~ scale (1 + tail).
    let idx = 2 * (ki % 128) as usize;
    let tail = f64::from_bits(TABLE[idx]);
    let scale = f64::from_bits(TABLE[idx + 1].wrapping_add(ki << 45));
    // exp(x) ~ scale + scale (tail + exp(r) - 1).
    let r2 = r * r;
    let tmp = r2.mul_add(r.mul_add(C3, C2), tail + r);
    let tmp = (r2 * r2).mul_add(r.mul_add(C5, C4), tmp);
    scale.mul_add(tmp, scale)
}

#[cfg(test)]
mod tests {
    //! Each test diffs [`exp`] against [`f64::exp`], the libm call it
    //! replaces. They hold where the port's source holds: glibc 2.28 or
    //! later on hardware with FMA, the host the workspace's pinned digests
    //! come from. Against any other `exp` the last bit may differ.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::f64::consts::LN_2;

    fn assert_matches_libm(x: f64) {
        assert_eq!(
            exp(x).to_bits(),
            x.exp().to_bits(),
            "exp({x:e}) [{:#018x}]",
            x.to_bits()
        );
    }

    /// How many of `n` inputs drawn from `seed` differ from libm: one in
    /// four a raw bit pattern (mostly outside the fast path — huge, tiny,
    /// subnormal, infinite, NaN), the rest with the exponent moved into it.
    fn mismatches(n: u64, seed: u64) -> u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bad = 0;
        for i in 0..n {
            let mut bits = rng.next_u64();
            if i % 4 != 0 {
                let top = TOP_TINY + ((bits >> 52) & 0x7ff) % (TOP_HUGE - TOP_TINY);
                bits = (bits & !(0x7ff << 52)) | (top << 52);
            }
            let x = f64::from_bits(bits);
            bad += u64::from(exp(x).to_bits() != x.exp().to_bits());
        }
        bad
    }

    #[test]
    fn exp_matches_libm_across_every_table_index() {
        // k steps by 37, coprime with 128, so every table index is read;
        // the offsets walk k's reduction interval |r| <= ln2 / 256.
        let mut read = [false; 128];
        let mut k: i64 = -94_000;
        while k < 94_000 {
            read[k.rem_euclid(128) as usize] = true;
            for t in [
                -0.5, -0.499_999, -0.25, -1e-9, 0.0, 1e-9, 0.25, 0.499_999, 0.5,
            ] {
                assert_matches_libm((k as f64 + t) * (LN_2 / 128.0));
            }
            k += 37;
        }
        assert!(read.iter().all(|&r| r));
    }

    #[test]
    fn exp_matches_libm_on_the_fast_path_borders_and_special_values() {
        let mut xs = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            1.0,
            709.78,
            709.79,
            745.2,
        ];
        // 2^-54 and 512, each with its neighbours on both sides.
        for border in [f64::from_bits(TOP_TINY << 52), 512.0] {
            let bits = border.to_bits();
            xs.extend([bits - 1, bits, bits + 1].map(f64::from_bits));
        }
        assert!(in_range(xs[xs.len() - 5]) && !in_range(xs[xs.len() - 6]));
        assert!(in_range(xs[xs.len() - 3]) && !in_range(xs[xs.len() - 2]));
        for x in xs {
            assert_matches_libm(x);
            assert_matches_libm(-x);
        }
    }

    #[test]
    fn exp_matches_libm_on_random_bit_patterns() {
        assert_eq!(mismatches(1_000_000, 0x5eed), 0);
    }

    /// The same diff on 10^9 inputs, for `scripts/check.sh libm`, which runs
    /// it in release.
    #[test]
    #[ignore = "10^9 inputs; run in release through scripts/check.sh libm"]
    fn exp_matches_libm_on_a_billion_random_inputs() {
        let n = 1_000_000_000;
        let bad = mismatches(n, 0x0e1f);
        println!("exp port vs libm exp: {bad} mismatches in {n} inputs");
        assert_eq!(bad, 0);
    }
}
