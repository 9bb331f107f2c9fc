//! Offline stand-in for `serde_derive` (see `compat/README.md`).
//!
//! Hand-rolled `#[derive(Serialize)]` without `syn`/`quote`:
//! a small token-tree parser covering the shapes this workspace actually
//! derives — non-generic structs (named, tuple, unit) and enums (unit,
//! newtype, tuple and struct variants). Generic types and `#[serde(...)]`
//! attributes are intentionally unsupported and panic with a clear
//! message at expansion time.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The parsed shape of a derive target.
enum Shape {
    StructNamed(Vec<String>),
    StructTuple(usize),
    StructUnit,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    let body = match shape {
        Shape::StructNamed(fields) => {
            let mut code = String::new();
            code.push_str("use ::serde::ser::SerializeStruct as _;\n");
            code.push_str(&format!(
                "let mut state = serializer.serialize_struct(\"{name}\", {})?;\n",
                fields.len()
            ));
            for field in &fields {
                code.push_str(&format!(
                    "state.serialize_field(\"{field}\", &self.{field})?;\n"
                ));
            }
            code.push_str("state.end()");
            code
        }
        Shape::StructTuple(1) => {
            format!("serializer.serialize_newtype_struct(\"{name}\", &self.0)")
        }
        Shape::StructTuple(arity) => {
            let mut code = String::new();
            code.push_str("use ::serde::ser::SerializeTupleStruct as _;\n");
            code.push_str(&format!(
                "let mut state = serializer.serialize_tuple_struct(\"{name}\", {arity})?;\n"
            ));
            for i in 0..arity {
                code.push_str(&format!("state.serialize_field(&self.{i})?;\n"));
            }
            code.push_str("state.end()");
            code
        }
        Shape::StructUnit => format!("serializer.serialize_unit_struct(\"{name}\")"),
        Shape::Enum(variants) => {
            let mut code = String::new();
            code.push_str("#[allow(unused_imports)]\n");
            code.push_str("use ::serde::ser::{SerializeTupleVariant as _, SerializeStructVariant as _};\n");
            code.push_str("match self {\n");
            for (index, variant) in variants.iter().enumerate() {
                let vname = &variant.name;
                match &variant.kind {
                    VariantKind::Unit => code.push_str(&format!(
                        "{name}::{vname} => serializer.serialize_unit_variant(\"{name}\", {index}u32, \"{vname}\"),\n"
                    )),
                    VariantKind::Tuple(1) => code.push_str(&format!(
                        "{name}::{vname}(__f0) => serializer.serialize_newtype_variant(\"{name}\", {index}u32, \"{vname}\", __f0),\n"
                    )),
                    VariantKind::Tuple(arity) => {
                        let binders: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                        code.push_str(&format!(
                            "{name}::{vname}({}) => {{\nlet mut state = serializer.serialize_tuple_variant(\"{name}\", {index}u32, \"{vname}\", {arity})?;\n",
                            binders.join(", ")
                        ));
                        for binder in &binders {
                            code.push_str(&format!("state.serialize_field({binder})?;\n"));
                        }
                        code.push_str("state.end()\n}\n");
                    }
                    VariantKind::Named(fields) => {
                        code.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{\nlet mut state = serializer.serialize_struct_variant(\"{name}\", {index}u32, \"{vname}\", {})?;\n",
                            fields.join(", "),
                            fields.len()
                        ));
                        for field in fields {
                            code.push_str(&format!("state.serialize_field(\"{field}\", {field})?;\n"));
                        }
                        code.push_str("state.end()\n}\n");
                    }
                }
            }
            code.push_str("}\n");
            code
        }
    };
    let output = format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, serializer: __S)\n\
         -> ::core::result::Result<__S::Ok, __S::Error> {{\n{body}\n}}\n}}\n"
    );
    output
        .parse()
        .expect("serde_derive stub generated invalid Rust")
}

/// Parses a struct/enum item into its name and shape.
fn parse_item(input: TokenStream) -> (String, Shape) {
    let mut tokens = input.into_iter().peekable();
    // Skip attributes and visibility to find `struct` / `enum`.
    let mut keyword = None;
    while let Some(token) = tokens.next() {
        match &token {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                // Attribute: consume the following [...] group.
                tokens.next();
            }
            TokenTree::Ident(ident) => {
                let text = ident.to_string();
                if text == "struct" || text == "enum" {
                    keyword = Some(text);
                    break;
                }
                // `pub`, `pub(crate)` etc. — `(crate)` group is skipped as
                // its own token below.
            }
            _ => {}
        }
    }
    let keyword = keyword.expect("serde_derive stub: expected `struct` or `enum`");
    let name = match tokens.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => panic!("serde_derive stub: expected type name, got {other:?}"),
    };
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive stub: generic type `{name}` is not supported");
    }
    let shape = if keyword == "struct" {
        match tokens.next() {
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Brace => {
                Shape::StructNamed(parse_named_fields(group.stream()))
            }
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Parenthesis => {
                Shape::StructTuple(count_tuple_fields(group.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::StructUnit,
            other => panic!("serde_derive stub: unexpected struct body {other:?}"),
        }
    } else {
        match tokens.next() {
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(group.stream()))
            }
            other => panic!("serde_derive stub: unexpected enum body {other:?}"),
        }
    };
    (name, shape)
}

/// Extracts field names from a `{ a: T, pub b: U, ... }` body.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        // Skip attributes and visibility before the field name.
        let mut name = None;
        for token in tokens.by_ref() {
            match &token {
                TokenTree::Punct(p) if p.as_char() == '#' => {}
                TokenTree::Group(_) => {} // attribute body or `pub(...)`
                TokenTree::Ident(ident) if ident.to_string() == "pub" => {}
                TokenTree::Ident(ident) => {
                    name = Some(ident.to_string());
                    break;
                }
                other => panic!("serde_derive stub: unexpected field token {other:?}"),
            }
        }
        let Some(name) = name else { break };
        fields.push(name);
        // Expect `:`, then skip the type up to a top-level comma. Angle
        // brackets never nest commas at the top level in this workspace's
        // field types except inside `<...>`, so track `<`/`>` depth.
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive stub: expected `:` after field, got {other:?}"),
        }
        let mut angle_depth = 0i32;
        for token in tokens.by_ref() {
            match &token {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
        }
    }
    fields
}

/// Counts fields in a tuple-struct/tuple-variant `(A, B, ...)` body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut count = 0;
    let mut angle_depth = 0i32;
    let mut saw_token = false;
    for token in stream {
        match &token {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                count += 1;
                saw_token = false;
                continue;
            }
            _ => {}
        }
        saw_token = true;
    }
    if saw_token {
        count += 1;
    }
    count
}

/// Parses enum variants, skipping attributes and explicit discriminants.
fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        // Skip attributes before the variant name.
        let mut name = None;
        for token in tokens.by_ref() {
            match &token {
                TokenTree::Punct(p) if p.as_char() == '#' => {}
                TokenTree::Group(_) => {} // attribute body
                TokenTree::Ident(ident) => {
                    name = Some(ident.to_string());
                    break;
                }
                other => panic!("serde_derive stub: unexpected variant token {other:?}"),
            }
        }
        let Some(name) = name else { break };
        let kind = match tokens.peek() {
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(group.stream());
                tokens.next();
                VariantKind::Tuple(arity)
            }
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(group.stream());
                tokens.next();
                VariantKind::Named(fields)
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        // Skip an optional `= discriminant` and the trailing comma.
        let mut angle_depth = 0i32;
        while let Some(token) = tokens.peek() {
            match token {
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    tokens.next();
                    break;
                }
                TokenTree::Punct(p) if p.as_char() == '<' => {
                    angle_depth += 1;
                    tokens.next();
                }
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    angle_depth -= 1;
                    tokens.next();
                }
                _ => {
                    tokens.next();
                }
            }
        }
    }
    variants
}
