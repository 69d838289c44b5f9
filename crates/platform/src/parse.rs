//! The platform-file parser: a strict TOML subset.
//!
//! A platform file is line-oriented: a top-level `name = "..."` key,
//! `[section]` headers, and `key = value` pairs where a value is a quoted
//! string, a number, a boolean, or a flat array of numbers. `#` starts a
//! comment (outside quotes). Nothing else — no nested tables, no
//! multi-line values — so the grammar stays reviewable and every
//! diagnostic can name the exact file, line, and field.
//!
//! Unknown sections and keys are *rejected*, not ignored: a typo in a
//! platform file must fail loudly instead of silently simulating the
//! default platform.

use ulp_cluster::ClusterConfig;
use ulp_isa::CoreModel;
use ulp_link::{LinkClocking, SpiWidth};
use ulp_mcu::{datasheet, McuDevice};
use ulp_power::PulpPowerModel;

use crate::{clock_hz, host_clock_hz, PlatformError, PlatformSpec};

/// Known sections and their known keys, in canonical render order. The
/// empty section name is the top level.
const SECTIONS: &[(&str, &[&str])] = &[
    ("", &["name"]),
    ("host", &["device", "freq_mhz"]),
    (
        "link",
        &[
            "width",
            "prescaler",
            "clocking",
            "boost_mhz",
            "clock_mhz",
            "sensor_mbps",
        ],
    ),
    (
        "cluster",
        &[
            "cores",
            "tcdm_kb",
            "tcdm_banks",
            "l2_kb",
            "l2_latency",
            "icache_kb",
            "icache_line",
            "icache_miss_penalty",
            "barrier_latency",
            "dma_channels",
            "dma_setup",
        ],
    ),
    (
        "isa",
        &[
            "mac",
            "simd_dot",
            "hw_loops",
            "post_increment",
            "mul64",
            "unaligned",
            "div",
        ],
    ),
    ("power", &["fmax_scale", "leak_scale", "density_scale"]),
    ("dvfs", &["vdd_points", "default_vdd"]),
];

fn known_keys(section: &str) -> Option<&'static [&'static str]> {
    SECTIONS
        .iter()
        .find(|(s, _)| *s == section)
        .map(|(_, keys)| *keys)
}

fn field_path(section: &str, key: &str) -> String {
    if section.is_empty() {
        key.to_owned()
    } else {
        format!("{section}.{key}")
    }
}

/// One `key = value` occurrence.
struct Item {
    line: usize,
    section: &'static str,
    key: String,
    raw: String,
}

struct Entries<'a> {
    file: &'a str,
    items: Vec<Item>,
}

impl Entries<'_> {
    fn err(&self, line: usize, field: &str, message: String) -> PlatformError {
        PlatformError {
            file: self.file.to_owned(),
            line,
            field: field.to_owned(),
            message,
        }
    }

    fn get(&self, section: &str, key: &str) -> Option<&Item> {
        self.items
            .iter()
            .find(|i| i.section == section && i.key == key)
    }

    fn require(&self, section: &str, key: &str, hint: &str) -> Result<&Item, PlatformError> {
        self.get(section, key).ok_or_else(|| {
            self.err(
                0,
                &field_path(section, key),
                format!("missing required key ({hint})"),
            )
        })
    }

    fn item_err(&self, item: &Item, message: String) -> PlatformError {
        self.err(item.line, &field_path(item.section, &item.key), message)
    }

    fn str_of(&self, item: &Item) -> Result<String, PlatformError> {
        let raw = item.raw.as_str();
        if raw.len() >= 2 && raw.starts_with('"') && raw.ends_with('"') {
            Ok(raw[1..raw.len() - 1].to_owned())
        } else {
            Err(self.item_err(item, format!("expected a quoted string, got `{raw}`")))
        }
    }

    fn f64_of(&self, item: &Item) -> Result<f64, PlatformError> {
        match item.raw.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(self.item_err(item, format!("expected a number, got `{}`", item.raw))),
        }
    }

    fn uint_of(&self, item: &Item) -> Result<u64, PlatformError> {
        item.raw.parse::<u64>().map_err(|_| {
            self.item_err(
                item,
                format!("expected a non-negative integer, got `{}`", item.raw),
            )
        })
    }

    fn bool_of(&self, item: &Item) -> Result<bool, PlatformError> {
        match item.raw.as_str() {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(self.item_err(item, format!("expected true or false, got `{other}`"))),
        }
    }

    fn f64_array_of(&self, item: &Item) -> Result<Vec<f64>, PlatformError> {
        let raw = item.raw.as_str();
        let inner = raw
            .strip_prefix('[')
            .and_then(|r| r.strip_suffix(']'))
            .ok_or_else(|| {
                self.item_err(
                    item,
                    format!("expected an array like [0.5, 0.65], got `{raw}`"),
                )
            })?;
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Vec::new());
        }
        inner
            .split(',')
            .map(|part| match part.trim().parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                _ => Err(self.item_err(
                    item,
                    format!("expected a number in the array, got `{}`", part.trim()),
                )),
            })
            .collect()
    }
}

/// Cuts a trailing comment: the first `#` outside double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn tokenize<'a>(file: &'a str, text: &str) -> Result<Entries<'a>, PlatformError> {
    let mut entries = Entries {
        file,
        items: Vec::new(),
    };
    let known_sections: Vec<&str> = SECTIONS
        .iter()
        .map(|(s, _)| *s)
        .filter(|s| !s.is_empty())
        .collect();
    let mut section: &'static str = "";
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(entries.err(
                    line_no,
                    "",
                    format!("malformed section header `{line}` (expected `[section]`)"),
                ));
            };
            let name = name.trim();
            let Some((canonical, _)) = SECTIONS.iter().find(|(s, _)| !s.is_empty() && *s == name)
            else {
                return Err(entries.err(
                    line_no,
                    name,
                    format!(
                        "unknown section (known sections: {})",
                        known_sections.join(", ")
                    ),
                ));
            };
            section = canonical;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(entries.err(
                line_no,
                &field_path(section, ""),
                format!("expected `key = value`, got `{line}`"),
            ));
        };
        let key = key.trim();
        let value = value.trim();
        let known = known_keys(section).expect("section already validated");
        if !known.contains(&key) {
            return Err(entries.err(
                line_no,
                &field_path(section, key),
                format!("unknown key (known keys: {})", known.join(", ")),
            ));
        }
        if let Some(prev) = entries.get(section, key) {
            let first = prev.line;
            return Err(entries.err(
                line_no,
                &field_path(section, key),
                format!("duplicate key (first set on line {first})"),
            ));
        }
        if value.is_empty() {
            return Err(entries.err(
                line_no,
                &field_path(section, key),
                "missing value after `=`".to_owned(),
            ));
        }
        entries.items.push(Item {
            line: line_no,
            section,
            key: key.to_owned(),
            raw: value.to_owned(),
        });
    }
    Ok(entries)
}

/// Parses and validates a platform file. See [`PlatformSpec::parse`].
#[allow(clippy::too_many_lines)]
pub fn parse(file: &str, text: &str) -> Result<PlatformSpec, PlatformError> {
    let e = tokenize(file, text)?;

    // -- top level -------------------------------------------------------
    let name =
        e.str_of(e.require("", "name", "a platform file starts with `name = \"...\"`")?)?;

    // -- [host] ----------------------------------------------------------
    let device_item = e.require("host", "device", "the host MCU datasheet name")?;
    let device_name = e.str_of(device_item)?;
    // Datasheet names are display strings ("STM32-L476"); match them
    // loosely so platform files can use the natural slug "stm32l476".
    fn device_slug(name: &str) -> String {
        name.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect()
    }
    let host: McuDevice = datasheet::all()
        .into_iter()
        .find(|d| device_slug(d.name) == device_slug(&device_name))
        .ok_or_else(|| {
            let known: Vec<&str> = datasheet::all().iter().map(|d| d.name).collect();
            e.item_err(
                device_item,
                format!(
                    "unknown host device `{device_name}` (datasheet catalog: {})",
                    known.join(", ")
                ),
            )
        })?;
    let freq_item = e.require("host", "freq_mhz", "the host core clock in MHz")?;
    let mcu_freq_hz =
        host_clock_hz(&host, e.f64_of(freq_item)?).map_err(|m| e.item_err(freq_item, m))?;

    // -- [link] ----------------------------------------------------------
    let link_width = match e.get("link", "width") {
        None => SpiWidth::Quad,
        Some(item) => match e.str_of(item)?.as_str() {
            "spi" => SpiWidth::Single,
            "qspi" => SpiWidth::Quad,
            other => {
                return Err(e.item_err(item, format!("unknown link width `{other}` (spi, qspi)")))
            }
        },
    };
    let link_prescaler = match e.get("link", "prescaler") {
        None => 2,
        Some(item) => {
            let p = e.uint_of(item)?;
            if p == 0 || p > u64::from(u32::MAX) {
                return Err(e.item_err(item, "prescaler must be a positive u32".to_owned()));
            }
            p as u32
        }
    };
    let clocking_mode = match e.get("link", "clocking") {
        None => "mcu-divided".to_owned(),
        Some(item) => {
            let mode = e.str_of(item)?;
            if !["mcu-divided", "boosted-mcu", "independent"].contains(&mode.as_str()) {
                return Err(e.item_err(
                    item,
                    format!("unknown clocking `{mode}` (mcu-divided, boosted-mcu, independent)"),
                ));
            }
            mode
        }
    };
    let boost_item = e.get("link", "boost_mhz");
    let clock_item = e.get("link", "clock_mhz");
    let link_clocking = match clocking_mode.as_str() {
        "boosted-mcu" => {
            if let Some(item) = clock_item {
                return Err(e.item_err(
                    item,
                    "clock_mhz is only meaningful with clocking = \"independent\"".to_owned(),
                ));
            }
            let item = e.require(
                "link",
                "boost_mhz",
                "clocking = \"boosted-mcu\" needs the boosted clock",
            )?;
            let mcu_hz = clock_hz("boosted clock", e.f64_of(item)?);
            LinkClocking::BoostedMcu {
                mcu_hz: mcu_hz.map_err(|m| e.item_err(item, m))?,
            }
        }
        "independent" => {
            if let Some(item) = boost_item {
                return Err(e.item_err(
                    item,
                    "boost_mhz is only meaningful with clocking = \"boosted-mcu\"".to_owned(),
                ));
            }
            let item = e.require(
                "link",
                "clock_mhz",
                "clocking = \"independent\" needs the link clock",
            )?;
            let spi_hz = clock_hz("link clock", e.f64_of(item)?);
            LinkClocking::Independent {
                spi_hz: spi_hz.map_err(|m| e.item_err(item, m))?,
            }
        }
        _ => {
            if let Some(item) = boost_item {
                return Err(e.item_err(
                    item,
                    "boost_mhz is only meaningful with clocking = \"boosted-mcu\"".to_owned(),
                ));
            }
            if let Some(item) = clock_item {
                return Err(e.item_err(
                    item,
                    "clock_mhz is only meaningful with clocking = \"independent\"".to_owned(),
                ));
            }
            LinkClocking::McuDivided
        }
    };
    let sensor_bandwidth = match e.get("link", "sensor_mbps") {
        None => 10.0e6,
        Some(item) => {
            let mbps = e.f64_of(item)?;
            if mbps <= 0.0 {
                return Err(e.item_err(item, "sensor bandwidth must be positive".to_owned()));
            }
            mbps * 1e6
        }
    };

    // -- [cluster] -------------------------------------------------------
    let mut cluster = ClusterConfig::default();
    if let Some(item) = e.get("cluster", "cores") {
        let n = e.uint_of(item)? as usize;
        if !(1..=32).contains(&n) {
            return Err(e.item_err(
                item,
                format!("cores {n} outside the simulator's 1-32 range"),
            ));
        }
        cluster.num_cores = n;
    }
    if let Some(item) = e.get("cluster", "tcdm_kb") {
        cluster.tcdm_size = positive_kb(&e, item)?;
    }
    if let Some(item) = e.get("cluster", "tcdm_banks") {
        let n = e.uint_of(item)? as usize;
        if !n.is_power_of_two() {
            return Err(e.item_err(item, format!("tcdm_banks {n} must be a power of two")));
        }
        cluster.tcdm_banks = n;
    }
    if let Some(item) = e.get("cluster", "l2_kb") {
        cluster.l2_size = positive_kb(&e, item)?;
    }
    if let Some(item) = e.get("cluster", "l2_latency") {
        cluster.l2_data_latency = small_uint(&e, item)?;
    }
    if let Some(item) = e.get("cluster", "icache_kb") {
        cluster.icache_size = positive_kb(&e, item)?;
    }
    if let Some(item) = e.get("cluster", "icache_line") {
        let n = e.uint_of(item)? as usize;
        if !n.is_power_of_two() || n < 4 {
            return Err(e.item_err(
                item,
                format!("icache_line {n} must be a power of two and at least 4"),
            ));
        }
        cluster.icache_line = n;
    }
    if let Some(item) = e.get("cluster", "icache_miss_penalty") {
        cluster.icache_miss_penalty = small_uint(&e, item)?;
    }
    if let Some(item) = e.get("cluster", "barrier_latency") {
        cluster.barrier_latency = small_uint(&e, item)?;
    }
    if let Some(item) = e.get("cluster", "dma_channels") {
        let n = e.uint_of(item)? as usize;
        if n == 0 {
            return Err(e.item_err(item, "dma_channels must be at least 1".to_owned()));
        }
        cluster.dma_channels = n;
    }
    if let Some(item) = e.get("cluster", "dma_setup") {
        cluster.dma_setup = small_uint(&e, item)?;
    }
    // Cross-field shape constraints, attributed to the key that broke
    // them (one of the two is present, or the defaults would have held).
    if !cluster.tcdm_size.is_multiple_of(cluster.tcdm_banks * 4) {
        let item = e
            .get("cluster", "tcdm_banks")
            .or_else(|| e.get("cluster", "tcdm_kb"))
            .expect("defaults satisfy the constraint");
        return Err(e.item_err(
            item,
            format!(
                "TCDM of {} bytes does not split into {} word-interleaved banks",
                cluster.tcdm_size, cluster.tcdm_banks
            ),
        ));
    }
    if !cluster.icache_size.is_multiple_of(cluster.icache_line) {
        let item = e
            .get("cluster", "icache_line")
            .or_else(|| e.get("cluster", "icache_kb"))
            .expect("defaults satisfy the constraint");
        return Err(e.item_err(
            item,
            format!(
                "icache of {} bytes is not a whole number of {}-byte lines",
                cluster.icache_size, cluster.icache_line
            ),
        ));
    }

    // -- [isa] -----------------------------------------------------------
    let mut model = CoreModel::or10n();
    for (key, flag) in [
        ("mac", &mut model.features.mac as &mut bool),
        ("simd_dot", &mut model.features.simd_dot),
        ("hw_loops", &mut model.features.hw_loops),
        ("post_increment", &mut model.features.post_increment),
        ("mul64", &mut model.features.mul64),
        ("unaligned", &mut model.features.unaligned),
        ("div", &mut model.features.div),
    ] {
        if let Some(item) = e.get("isa", key) {
            *flag = e.bool_of(item)?;
        }
    }
    cluster.core_model = model;

    // -- [power] ---------------------------------------------------------
    let mut power_scales = [1.0f64; 3];
    for (slot, key) in ["fmax_scale", "leak_scale", "density_scale"]
        .into_iter()
        .enumerate()
    {
        if let Some(item) = e.get("power", key) {
            let s = e.f64_of(item)?;
            if s <= 0.0 {
                return Err(e.item_err(item, format!("{key} must be positive, got {s}")));
            }
            power_scales[slot] = s;
        }
    }
    let power = PulpPowerModel::pulp3_scaled(power_scales[0], power_scales[1], power_scales[2]);

    // -- [dvfs] ----------------------------------------------------------
    let points_item = e.require(
        "dvfs",
        "vdd_points",
        "the DVFS ladder, e.g. vdd_points = [0.5, 0.65, 0.8]",
    )?;
    let vdd_points = e.f64_array_of(points_item)?;
    if vdd_points.is_empty() {
        return Err(e.item_err(
            points_item,
            "the DVFS ladder must list at least one operating point".to_owned(),
        ));
    }
    for &v in &vdd_points {
        if !(0.5..=1.0).contains(&v) {
            return Err(e.item_err(
                points_item,
                format!("operating point {v} V is outside the power tables' 0.5-1.0 V range"),
            ));
        }
    }
    if !vdd_points.windows(2).all(|w| w[0] < w[1]) {
        return Err(e.item_err(
            points_item,
            "operating points must be strictly ascending".to_owned(),
        ));
    }
    let default_item = e.require(
        "dvfs",
        "default_vdd",
        "the supply the platform runs at by default",
    )?;
    let default_vdd = e.f64_of(default_item)?;
    if !vdd_points.contains(&default_vdd) {
        return Err(e.item_err(
            default_item,
            format!("default_vdd {default_vdd} is not one of the ladder points {vdd_points:?}"),
        ));
    }

    Ok(PlatformSpec {
        name,
        host,
        mcu_freq_hz,
        link_width,
        link_prescaler,
        link_clocking,
        sensor_bandwidth,
        cluster,
        power,
        power_scales,
        vdd_points,
        default_vdd,
    })
}

fn positive_kb(e: &Entries<'_>, item: &Item) -> Result<usize, PlatformError> {
    let kb = e.uint_of(item)?;
    if kb == 0 {
        return Err(e.item_err(item, "size must be at least 1 kB".to_owned()));
    }
    Ok(kb as usize * 1024)
}

fn small_uint(e: &Entries<'_>, item: &Item) -> Result<u32, PlatformError> {
    let n = e.uint_of(item)?;
    u32::try_from(n).map_err(|_| e.item_err(item, format!("{n} does not fit in a u32")))
}

/// Renders a spec back into canonical platform-file text. Parsing the
/// result reproduces the spec exactly (the round-trip property the unit
/// tests pin), which makes the renderer a safe base for generated
/// platform sweeps.
#[must_use]
pub fn render(spec: &PlatformSpec) -> String {
    let c = &spec.cluster;
    let f = &c.core_model.features;
    let clocking = match spec.link_clocking {
        LinkClocking::McuDivided => "clocking = \"mcu-divided\"".to_owned(),
        LinkClocking::BoostedMcu { mcu_hz } => {
            format!("clocking = \"boosted-mcu\"\nboost_mhz = {}", mcu_hz / 1e6)
        }
        LinkClocking::Independent { spi_hz } => {
            format!("clocking = \"independent\"\nclock_mhz = {}", spi_hz / 1e6)
        }
    };
    let points: Vec<String> = spec.vdd_points.iter().map(|v| format!("{v}")).collect();
    format!(
        "name = \"{name}\"\n\n\
         [host]\n\
         device = \"{device}\"\n\
         freq_mhz = {freq}\n\n\
         [link]\n\
         width = \"{width}\"\n\
         prescaler = {prescaler}\n\
         {clocking}\n\
         sensor_mbps = {sensor}\n\n\
         [cluster]\n\
         cores = {cores}\n\
         tcdm_kb = {tcdm_kb}\n\
         tcdm_banks = {banks}\n\
         l2_kb = {l2_kb}\n\
         l2_latency = {l2_lat}\n\
         icache_kb = {ic_kb}\n\
         icache_line = {ic_line}\n\
         icache_miss_penalty = {ic_miss}\n\
         barrier_latency = {barrier}\n\
         dma_channels = {dma_ch}\n\
         dma_setup = {dma_setup}\n\n\
         [isa]\n\
         mac = {mac}\n\
         simd_dot = {simd}\n\
         hw_loops = {hwl}\n\
         post_increment = {post}\n\
         mul64 = {mul64}\n\
         unaligned = {unal}\n\
         div = {div}\n\n\
         [power]\n\
         fmax_scale = {fs}\n\
         leak_scale = {ls}\n\
         density_scale = {ds}\n\n\
         [dvfs]\n\
         vdd_points = [{points}]\n\
         default_vdd = {dvdd}\n",
        name = spec.name,
        device = spec.host.name,
        freq = spec.mcu_freq_hz / 1e6,
        width = match spec.link_width {
            SpiWidth::Single => "spi",
            SpiWidth::Quad => "qspi",
        },
        prescaler = spec.link_prescaler,
        clocking = clocking,
        sensor = spec.sensor_bandwidth / 1e6,
        cores = c.num_cores,
        tcdm_kb = c.tcdm_size / 1024,
        banks = c.tcdm_banks,
        l2_kb = c.l2_size / 1024,
        l2_lat = c.l2_data_latency,
        ic_kb = c.icache_size / 1024,
        ic_line = c.icache_line,
        ic_miss = c.icache_miss_penalty,
        barrier = c.barrier_latency,
        dma_ch = c.dma_channels,
        dma_setup = c.dma_setup,
        mac = f.mac,
        simd = f.simd_dot,
        hwl = f.hw_loops,
        post = f.post_increment,
        mul64 = f.mul64,
        unal = f.unaligned,
        div = f.div,
        fs = spec.power_scales[0],
        ls = spec.power_scales[1],
        ds = spec.power_scales[2],
        points = points.join(", "),
        dvdd = spec.default_vdd,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"
# The paper's prototype platform.
name = "m4-pulp3"

[host]
device = "stm32l476"
freq_mhz = 16

[link]
width = "qspi"
prescaler = 2
clocking = "mcu-divided"
sensor_mbps = 10

[dvfs]
vdd_points = [0.5, 0.65, 0.8, 1.0]
default_vdd = 0.65
"#;

    #[test]
    fn baseline_parses_to_the_paper_defaults() {
        let spec = parse("baseline.toml", BASELINE).expect("baseline must parse");
        assert_eq!(spec.name, "m4-pulp3");
        assert_eq!(spec.host.name, "STM32-L476");
        assert_eq!(spec.mcu_freq_hz.to_bits(), 16.0e6f64.to_bits());
        assert_eq!(spec.link_width, SpiWidth::Quad);
        assert_eq!(spec.link_prescaler, 2);
        assert_eq!(spec.link_clocking, LinkClocking::McuDivided);
        assert_eq!(spec.sensor_bandwidth.to_bits(), 10.0e6f64.to_bits());
        assert_eq!(spec.cluster, ClusterConfig::default());
        assert_eq!(spec.default_vdd, 0.65);
        // The power model at unit scales is the calibrated pulp3 table.
        assert_eq!(
            spec.power.fmax_hz(0.65).to_bits(),
            PulpPowerModel::pulp3().fmax_hz(0.65).to_bits()
        );
        assert_eq!(spec.operating_points()[1].vdd, spec.default_vdd);
    }

    #[test]
    fn render_round_trips_exactly() {
        let spec = parse("baseline.toml", BASELINE).unwrap();
        let rendered = render(&spec);
        let again = parse("rendered.toml", &rendered).expect("rendered file must parse");
        assert_eq!(spec.name, again.name);
        assert_eq!(spec.host.name, again.host.name);
        assert_eq!(spec.mcu_freq_hz.to_bits(), again.mcu_freq_hz.to_bits());
        assert_eq!(spec.link_width, again.link_width);
        assert_eq!(spec.link_prescaler, again.link_prescaler);
        assert_eq!(spec.link_clocking, again.link_clocking);
        assert_eq!(
            spec.sensor_bandwidth.to_bits(),
            again.sensor_bandwidth.to_bits()
        );
        assert_eq!(spec.cluster, again.cluster);
        assert_eq!(spec.power_scales, again.power_scales);
        assert_eq!(spec.vdd_points, again.vdd_points);
        assert_eq!(spec.default_vdd.to_bits(), again.default_vdd.to_bits());
    }

    #[test]
    fn successor_round_trips_through_every_section() {
        let spec = parse(
            "succ.toml",
            r#"
name = "octa"
[host]
device = "stm32f407"
freq_mhz = 32
[link]
width = "spi"
prescaler = 1
clocking = "independent"
clock_mhz = 48
sensor_mbps = 20
[cluster]
cores = 8
tcdm_kb = 128
tcdm_banks = 16
icache_kb = 8
[isa]
post_increment = true
div = true
[power]
fmax_scale = 1.5
leak_scale = 1.2
density_scale = 0.8
[dvfs]
vdd_points = [0.5, 0.6, 0.7]
default_vdd = 0.6
"#,
        )
        .expect("successor must parse");
        assert_eq!(spec.cluster.num_cores, 8);
        assert!(spec.cluster.core_model.features.post_increment);
        assert!(spec.cluster.core_model.features.div);
        assert!(spec.cluster.core_model.features.simd_dot); // or10n default kept
        let again = parse("again.toml", &render(&spec)).unwrap();
        assert_eq!(spec.cluster, again.cluster);
        assert_eq!(spec.link_clocking, again.link_clocking);
        assert_eq!(spec.power_scales, again.power_scales);
        // Scaled power tables carry through the round trip bit-exactly.
        assert_eq!(
            spec.power.fmax_hz(0.6).to_bits(),
            again.power.fmax_hz(0.6).to_bits()
        );
    }

    fn err_of(text: &str) -> PlatformError {
        parse("t.toml", text).expect_err("must be rejected")
    }

    #[test]
    fn unknown_fields_are_rejected_with_context() {
        let err = err_of("name = \"x\"\n[host]\ndevice = \"stm32l476\"\nfreq_mhzz = 16\n");
        assert_eq!(err.line, 4);
        assert_eq!(err.field, "host.freq_mhzz");
        assert!(err.message.contains("unknown key"), "{}", err.message);
        assert!(err.message.contains("freq_mhz"), "{}", err.message);

        let err = err_of("name = \"x\"\n[hosts]\n");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown section"), "{}", err.message);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = err_of("name = \"x\"\nname = \"y\"\n");
        assert_eq!(err.line, 2);
        assert!(
            err.message.contains("first set on line 1"),
            "{}",
            err.message
        );
    }

    #[test]
    fn unknown_host_lists_the_catalog() {
        let err = err_of("name = \"x\"\n[host]\ndevice = \"z80\"\nfreq_mhz = 4\n");
        assert_eq!(err.line, 3);
        assert_eq!(err.field, "host.device");
        assert!(err.message.contains("STM32-L476"), "{}", err.message);
    }

    #[test]
    fn host_clock_above_datasheet_fmax_is_rejected() {
        let err = err_of("name = \"x\"\n[host]\ndevice = \"stm32l476\"\nfreq_mhz = 9999\n");
        assert_eq!(err.field, "host.freq_mhz");
        assert!(err.message.contains("datasheet fmax"), "{}", err.message);
    }

    const HOST: &str = "name = \"x\"\n[host]\ndevice = \"stm32l476\"\nfreq_mhz = 16\n";

    fn with_dvfs(body: &str) -> String {
        format!("{HOST}{body}[dvfs]\nvdd_points = [0.65]\ndefault_vdd = 0.65\n")
    }

    #[test]
    fn bad_operating_point_tables_are_rejected() {
        // Outside the power tables.
        let err = err_of(&format!(
            "{HOST}[dvfs]\nvdd_points = [0.4, 0.65]\ndefault_vdd = 0.65\n"
        ));
        assert_eq!(err.field, "dvfs.vdd_points");
        assert!(err.message.contains("0.5-1.0"), "{}", err.message);
        // Not ascending.
        let err = err_of(&format!(
            "{HOST}[dvfs]\nvdd_points = [0.8, 0.65]\ndefault_vdd = 0.65\n"
        ));
        assert!(err.message.contains("ascending"), "{}", err.message);
        // Empty ladder.
        let err = err_of(&format!(
            "{HOST}[dvfs]\nvdd_points = []\ndefault_vdd = 0.65\n"
        ));
        assert!(err.message.contains("at least one"), "{}", err.message);
        // Default off the ladder.
        let err = err_of(&format!(
            "{HOST}[dvfs]\nvdd_points = [0.5, 0.8]\ndefault_vdd = 0.65\n"
        ));
        assert_eq!(err.field, "dvfs.default_vdd");
        assert!(err.message.contains("not one of"), "{}", err.message);
        // Missing section entirely.
        let err = err_of(HOST);
        assert_eq!(err.line, 0);
        assert_eq!(err.field, "dvfs.vdd_points");
        assert!(err.message.contains("missing required"), "{}", err.message);
    }

    #[test]
    fn cluster_shape_errors_name_the_offending_key() {
        let err = err_of(&with_dvfs("[cluster]\ncores = 64\n"));
        assert_eq!(err.field, "cluster.cores");
        let err = err_of(&with_dvfs("[cluster]\ntcdm_banks = 3\n"));
        assert_eq!(err.field, "cluster.tcdm_banks");
        assert!(err.message.contains("power of two"), "{}", err.message);
        let err = err_of(&with_dvfs("[cluster]\ntcdm_kb = 1\ntcdm_banks = 512\n"));
        assert_eq!(err.field, "cluster.tcdm_banks");
        assert!(err.message.contains("does not split"), "{}", err.message);
    }

    #[test]
    fn link_clock_keys_must_match_the_mode() {
        let err = err_of(&with_dvfs("[link]\nboost_mhz = 32\n"));
        assert_eq!(err.field, "link.boost_mhz");
        assert!(err.message.contains("boosted-mcu"), "{}", err.message);
        let err = err_of(&with_dvfs(
            "[link]\nclocking = \"independent\"\nboost_mhz = 32\nclock_mhz = 48\n",
        ));
        assert_eq!(err.field, "link.boost_mhz");
        let err = err_of(&with_dvfs("[link]\nclocking = \"independent\"\n"));
        assert_eq!(err.field, "link.clock_mhz");
        assert!(err.message.contains("missing required"), "{}", err.message);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = parse(
            "c.toml",
            "# header\nname = \"x\" # trailing\n\n[host]\ndevice = \"stm32l476\" # dev\nfreq_mhz = 16\n[dvfs]\nvdd_points = [0.65] # pts\ndefault_vdd = 0.65\n",
        )
        .expect("comments must be stripped");
        assert_eq!(spec.name, "x");
    }

    #[test]
    fn operating_points_resolve_frequency_and_power() {
        let spec = parse("b.toml", BASELINE).unwrap();
        let ops = spec.operating_points();
        assert_eq!(ops.len(), 4);
        assert!(ops.windows(2).all(|w| w[0].freq_hz < w[1].freq_hz));
        assert!(ops
            .windows(2)
            .all(|w| w[0].busy_power_w < w[1].busy_power_w));
        assert_eq!(
            ops[1].freq_hz.to_bits(),
            PulpPowerModel::pulp3().fmax_hz(0.65).to_bits()
        );
    }
}
